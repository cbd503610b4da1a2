"""ExactSum: error-free, partition-invariant summation of doubles."""

from __future__ import annotations

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exactsum as exactsum_module
from repro.core.exactsum import ExactSum

finite_doubles = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)


class TestExactness:
    def test_matches_math_fsum(self):
        rng = np.random.default_rng(3)
        values = rng.normal(scale=1e6, size=10_000) * rng.choice(
            [1e-9, 1.0, 1e9], size=10_000
        )
        assert ExactSum.of_array(values).total() == math.fsum(values)

    def test_cancellation_survives(self):
        """The classic float-accumulation failure: huge terms that
        cancel must leave the small term intact."""
        assert ExactSum.of(1e300, 1.0, -1e300).total() == 1.0

    def test_subnormals_sum_exactly(self):
        tiny = 5e-324  # the subnormal quantum itself
        assert ExactSum.of(*([tiny] * 7)).total() == 7 * tiny

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ExactSum.of(float("inf"))
        with pytest.raises(ValueError, match="non-finite"):
            ExactSum.of_array(np.array([1.0, float("nan")]))

    @given(st.lists(finite_doubles, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_total_is_correctly_rounded(self, values):
        try:
            expected = math.fsum(values)
        except OverflowError:
            # fsum raises on any intermediate overflow, even when the
            # exact sum still rounds to +/-MAX_DOUBLE; recover the
            # correctly rounded value from the exact integer units
            # (int/int division is correctly rounded and raises only
            # when the true quotient rounds past the double range).
            units = sum(ExactSum.of(v).units for v in values)
            try:
                expected = units / 2**1074
            except OverflowError:
                expected = math.inf if units > 0 else -math.inf
        assert ExactSum.of(*values).total() == expected


class TestPartitionInvariance:
    @given(st.lists(finite_doubles, min_size=1, max_size=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_split_merges_to_the_same_bits(self, values, data):
        cut = data.draw(st.integers(0, len(values)))
        whole = ExactSum.of(*values)
        merged = ExactSum.of(*values[:cut]) + ExactSum.of(*values[cut:])
        assert merged == whole
        assert merged.total() == whole.total()

    def test_merge_is_associative_and_commutative(self):
        a, b, c = (ExactSum.of(x) for x in (1e16, 1.0, -1e16))
        assert (a + b) + c == a + (b + c) == (c + a) + b

    def test_array_and_scalar_paths_agree(self):
        values = [0.1, 0.2, 0.3, -7.5e200, 7.5e200, 5e-324]
        assert ExactSum.of(*values) == ExactSum.of_array(np.array(values))

    def test_add_array_accumulates_in_place(self):
        acc = ExactSum()
        acc.add_array(np.array([1.5, 2.5]))
        acc.add_array(np.array([-4.0]))
        assert acc == ExactSum.of(1.5, 2.5, -4.0)
        assert acc.total() == 0.0

    @given(st.lists(finite_doubles, min_size=1, max_size=48), st.data())
    @settings(max_examples=150, deadline=None)
    def test_nested_partitions_merge_to_the_same_bits(self, values, data):
        """The scatter-gather shape: rows cut into shards, each shard
        cut into morsels, partials merged bottom-up.  Any nesting of
        cuts must reproduce the flat sum's exact units."""
        n_cuts = data.draw(st.integers(0, 4))
        bounds = sorted(
            {0, len(values), *(data.draw(st.integers(0, len(values))) for _ in range(n_cuts))}
        )
        total = ExactSum()
        for lo, hi in zip(bounds, bounds[1:]):
            inner_cut = data.draw(st.integers(lo, hi))
            total += ExactSum.of(*values[lo:inner_cut]) + ExactSum.of(
                *values[inner_cut:hi]
            )
        assert total == ExactSum.of(*values)
        assert total.total() == ExactSum.of(*values).total()


class TestTransport:
    def test_pickles_to_the_same_state(self):
        original = ExactSum.of(0.1, 0.2, 1e-300)
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
        assert clone.total() == original.total()

    def test_empty_sum_is_zero(self):
        assert ExactSum().total() == 0.0
        assert ExactSum.of_array(np.array([])).total() == 0.0


# ---------------------------------------------------------------------------
# Array and grouped conversion kernels vs a fractions.Fraction oracle
# ---------------------------------------------------------------------------

def oracle_units(values) -> int:
    """The true sum in 2**-1074 units, by rational arithmetic."""
    total = sum((Fraction(float(v)) for v in values), Fraction(0)) * 2**1074
    assert total.denominator == 1
    return total.numerator


def oracle_grouped(values, group_ids, n_groups) -> list[int]:
    return [
        oracle_units(v for v, g in zip(values, group_ids) if g == group)
        for group in range(n_groups)
    ]


#: Magnitudes from below the subnormal quantum (rounds to 0 or a
#: subnormal) up to 2**1000, both signs, zero included.
wide_doubles = st.builds(
    math.ldexp,
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=-1080, max_value=1000),
)


@st.composite
def grouped_inputs(draw):
    values = draw(st.lists(wide_doubles, max_size=40))
    if draw(st.booleans()):
        # Exact cancellation: every value meets its negation somewhere.
        values = values + [-v for v in values]
        values = draw(st.permutations(values))
    # n_groups above len(values) leaves empty groups and, with the wide
    # exponent span, exercises the factorised (sparse) cell branch;
    # small n_groups with narrow spans stays in the dense table.
    n_groups = draw(st.integers(min_value=1, max_value=300))
    group_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_groups - 1),
            min_size=len(values), max_size=len(values),
        )
    )
    return values, group_ids, n_groups


class TestFractionOracle:
    @given(st.lists(wide_doubles, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_of_array_equals_rational_sum(self, values):
        assert ExactSum.of_array(np.array(values)).units == oracle_units(values)

    @given(grouped_inputs())
    @settings(max_examples=150, deadline=None)
    def test_grouped_equals_rational_sum_per_group(self, case):
        values, group_ids, n_groups = case
        units = ExactSum.grouped_units(
            np.array(values, dtype=np.float64),
            np.array(group_ids, dtype=np.int64),
            n_groups,
        )
        assert units == oracle_grouped(values, group_ids, n_groups)

    @given(grouped_inputs())
    @settings(max_examples=50, deadline=None)
    def test_grouped_equals_of_array_per_group(self, case):
        values, group_ids, n_groups = case
        values = np.array(values, dtype=np.float64)
        group_ids = np.array(group_ids, dtype=np.int64)
        units = ExactSum.grouped_units(values, group_ids, n_groups)
        for group in range(n_groups):
            assert units[group] == ExactSum.of_array(values[group_ids == group]).units

    def test_narrow_exponents_take_the_dense_table(self):
        """TPC-H money columns: a handful of exponents, a few groups."""
        rng = np.random.default_rng(11)
        values = rng.uniform(-1000.0, 1000.0, size=500).round(2)
        group_ids = rng.integers(0, 6, size=500)
        units = ExactSum.grouped_units(values, group_ids, 8)
        assert units == oracle_grouped(values.tolist(), group_ids.tolist(), 8)
        assert units[6] == units[7] == 0

    def test_arrays_longer_than_one_block(self):
        """Blocks convert independently; a group's rows straddle them."""
        n = exactsum_module._BLOCK + 4321
        rng = np.random.default_rng(5)
        values = np.ldexp(rng.uniform(-1, 1, size=n), rng.integers(-1078, 1000, size=n))
        values[::97] = 0.0
        group_ids = rng.integers(0, 4, size=n)  # group 4 stays empty
        assert ExactSum.of_array(values).units == oracle_units(values.tolist())
        assert ExactSum.grouped_units(values, group_ids, 5) == oracle_grouped(
            values.tolist(), group_ids.tolist(), 5
        )

    def test_subnormals_and_huge_values_share_a_group(self):
        values = np.array([5e-324, -2.0**1000, 1.5e-310, 2.0**1000, 5e-324])
        assert ExactSum.of_array(values).units == 2 + oracle_units([1.5e-310])
        assert ExactSum.grouped_units(values, np.zeros(5, dtype=np.int64), 1) == [
            oracle_units(values.tolist())
        ]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_by_both_entry_points(self, bad):
        n = exactsum_module._BLOCK + 10
        for position in (0, n - 1):  # first block, last block
            values = np.ones(n)
            values[position] = bad
            with pytest.raises(ValueError, match="non-finite"):
                ExactSum.of_array(values)
            with pytest.raises(ValueError, match="non-finite"):
                ExactSum.grouped_units(values, np.zeros(n, dtype=np.int64), 1)

    def test_group_ids_are_validated(self):
        values = np.ones(3)
        with pytest.raises(ValueError, match="equal length"):
            ExactSum.grouped_units(values, np.zeros(2, dtype=np.int64), 1)
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            ExactSum.grouped_units(values, np.array([0, 1, 2]), 2)
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            ExactSum.grouped_units(values, np.array([0, -1, 1]), 2)

    def test_empty_input(self):
        assert ExactSum.grouped_units(np.array([]), np.array([], dtype=np.int64), 3) == [0, 0, 0]
