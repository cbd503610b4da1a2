"""ExactSum: error-free, partition-invariant summation of doubles."""

from __future__ import annotations

import math
import pickle
import sys
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
    # n_groups above len(values) leaves empty groups; the wide exponent
    # span peels many limbs, down to the subnormal grid.
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

    def test_money_columns_in_a_few_groups(self):
        """TPC-H money columns: two limbs, a few groups, two empty."""
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


# ---------------------------------------------------------------------------
# The pre-rounded limb kernel at its edges
# ---------------------------------------------------------------------------

BLOCK = exactsum_module._BLOCK
#: Limb width of a one-block call: BLOCK * 2**(WIDTH + 1) == 2**53.
WIDTH = 52 - (BLOCK - 1).bit_length()


def both_entry_points(values) -> set[int]:
    """The one-group sum through ``of_array`` and ``grouped_units``."""
    ids = np.zeros(len(values), dtype=np.int64)
    return {
        ExactSum.of_array(values).units,
        ExactSum.grouped_units(values, ids, 1)[0],
    }


class TestLimbKernel:
    @pytest.mark.parametrize("power", [-1030, 0, 17, 971, 972, 1024])
    def test_full_block_at_the_exactness_bound(self, power):
        """BLOCK copies of the largest double below 2**power (its first
        limb rounds up to 2**power: 2**52 grid steps in all, the most
        the invariant allows) and of the widest limb below it (WIDTH
        one-bits); alternating signs cancel to zero."""
        largest = (
            sys.float_info.max if power == 1024
            else math.nextafter(math.ldexp(1.0, power), 0.0)
        )
        widest = math.ldexp(2.0**WIDTH - 1, power - WIDTH)
        for value in (largest, widest):
            assert math.frexp(value)[1] == power
            block = np.full(BLOCK, value)
            assert both_entry_points(block) == {BLOCK * oracle_units([value])}
            block[1::2] *= -1.0
            assert both_entry_points(block) == {0}
            assert both_entry_points(block[:-1]) == {oracle_units([value])}

    def test_full_block_of_full_mantissas_in_one_binade(self):
        """Every first limb carries WIDTH random bits, so the level sum
        needs all of WIDTH + 16 <= 53 bits: a limb two bits wider would
        round.  The oracle is integer arithmetic on the scaled values."""
        rng = np.random.default_rng(41)
        values = rng.uniform(2.0**16, 2.0**17, size=BLOCK)
        scaled = (values * 2.0**36).astype(np.int64)  # ulp is 2**-36: exact
        assert (scaled * 2.0**-36 == values).all()
        assert both_entry_points(values) == {sum(scaled.tolist()) << (1074 - 36)}

    def test_level_sums_fold_across_more_blocks_than_int64_holds(self, monkeypatch):
        """Blocks sharing a grid fold as int64 grid steps, at most 2**52
        per block: they must be lifted before 2**11 of them overflow."""
        monkeypatch.setattr(exactsum_module, "_BLOCK", 4)  # 50-bit limbs
        value = 2.0**50 - 1  # one limb of 50 one-bits
        values = np.full(4 * 3000, value)
        assert both_entry_points(values) == {len(values) * oracle_units([value])}

    @pytest.mark.parametrize("exponent", [-1000, 3, 20, 970])
    def test_ties_at_a_limb_boundary(self, exponent):
        """Values half a grid step from a grid point, and one ulp to
        either side of that: a tie may round either way, the residual
        carries the difference."""
        anchor = math.ldexp(1.0, exponent - 1)  # top exponent == exponent
        grid = math.ldexp(1.0, exponent - WIDTH)
        values = [anchor]
        for multiple in range(-6, 7):
            tie = (multiple + 0.5) * grid
            values += [tie, math.nextafter(tie, math.inf), math.nextafter(tie, -math.inf)]
        # The same again one limb down, where the residuals land.
        values += [v * math.ldexp(1.0, -WIDTH) for v in values[1:]]
        values = np.array(values)
        assert both_entry_points(values) == {oracle_units(values.tolist())}
        ids = np.arange(len(values)) % 3
        assert ExactSum.grouped_units(values, ids, 3) == oracle_grouped(
            values.tolist(), ids.tolist(), 3
        )

    def test_shifter_overflow_rows_next_to_subnormals(self):
        """Rows from 2**971 up cannot take the shifter: they are summed
        apart, scaled down, beside the block's tiny rows."""
        largest = sys.float_info.max
        values = np.array([
            5e-324, largest, -2.0**1000, 1.5e-310, 2.0**971, -5e-324 * 3,
            math.nextafter(2.0**971, 0.0), 2.0**970, -largest, largest, 1.0, 0.1,
        ])
        assert both_entry_points(values) == {oracle_units(values.tolist())}
        ids = np.array([0, 1, 2] * 4)
        assert ExactSum.grouped_units(values, ids, 4) == oracle_grouped(
            values.tolist(), ids.tolist(), 4
        )
        # A sum beyond the double range is still exact in units.
        assert ExactSum.of_array(np.full(5, largest)).units == 5 * oracle_units([largest])

    def test_signed_zeros_and_all_zero_blocks(self):
        zeros = np.zeros(2 * BLOCK + 7)
        zeros[1::2] = -0.0
        assert both_entry_points(zeros) == {0}
        zeros[BLOCK + 3] = 0.1  # one value in the middle block
        zeros[-1] = -5e-324
        assert both_entry_points(zeros) == {oracle_units([0.1, -5e-324])}
        ids = np.zeros(len(zeros), dtype=np.int64)
        ids[-1] = 2  # ids are checked in all-zero blocks too
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            ExactSum.grouped_units(np.zeros(len(zeros)), ids, 2)

    def test_consecutive_blocks_with_different_top_exponents(self):
        """Each block peels on its own grids; blocks that share a grid
        fold before they are lifted."""
        rng = np.random.default_rng(23)
        pattern = rng.uniform(-1000.0, 1000.0, size=64).round(2)
        repeats = BLOCK // len(pattern)
        scales = [1e-300, 1.0, 1.0, 2.0**990, 1.0, 2.0**-1060]
        values = np.concatenate([np.tile(pattern * scale, repeats) for scale in scales])
        expected = repeats * sum(
            oracle_units((pattern * scale).tolist()) for scale in scales
        )
        assert both_entry_points(values) == {expected}
        ids = np.arange(len(values)) % 2  # even / odd pattern positions
        assert ExactSum.grouped_units(values, ids, 2) == [
            repeats * sum(
                oracle_units((pattern[parity::2] * scale).tolist()) for scale in scales
            )
            for parity in (0, 1)
        ]

    def test_far_more_groups_than_rows(self):
        rng = np.random.default_rng(29)
        values = np.ldexp(rng.uniform(-1, 1, size=50), rng.integers(-1078, 1024, size=50))
        n_groups = 4 * BLOCK  # blocks of 2**20 rows, 32-bit limbs
        ids = rng.integers(0, n_groups, size=50)
        ids[:10] = ids[10:20]  # some groups hold two rows
        units = ExactSum.grouped_units(values, ids, n_groups)
        assert len(units) == n_groups
        expected = {}
        for group, value in zip(ids.tolist(), values.tolist()):
            expected[group] = expected.get(group, 0) + oracle_units([value])
        assert {g: u for g, u in enumerate(units) if u} == {
            g: u for g, u in expected.items() if u
        }

    def test_many_groups_over_several_long_blocks(self):
        """Blocks grow with n_groups (here 4 * 20 000 rows, 35-bit
        limbs); a group's rows straddle them."""
        rng = np.random.default_rng(31)
        n_groups, per_group = 20_000, 11
        pattern = (rng.uniform(900.0, 105_000.0, size=100).round(2)
                   * (1 - rng.integers(0, 11, size=100) / 100))
        index = np.arange(n_groups * per_group)
        values, ids = pattern[index % 100], index % n_groups
        units = ExactSum.grouped_units(values, ids, n_groups)
        by_position = [per_group * oracle_units([v]) for v in pattern.tolist()]
        assert units == [by_position[group % 100] for group in range(n_groups)]

    def test_far_fewer_groups_than_rows(self):
        rng = np.random.default_rng(37)
        n = 3 * BLOCK + 99
        pattern = rng.uniform(-1.0, 1.0, size=128) * 1e4
        values = pattern[np.arange(n) % 128]
        ids = (np.arange(n) % 128 >= 64).astype(np.int64)
        counts = np.bincount(np.arange(n) % 128, minlength=128).tolist()
        expected = [
            sum(counts[i] * oracle_units([pattern[i]]) for i in half)
            for half in (range(64), range(64, 128))
        ]
        assert ExactSum.grouped_units(values, ids, 2) == expected
        assert ExactSum.of_array(values).units == sum(expected)

    def test_absurd_and_late_bad_ids_are_value_errors(self):
        values = np.ones(BLOCK + 3)
        for bad in (10**12, 2**62, -1, 5):
            ids = np.zeros(len(values), dtype=np.int64)
            ids[-1] = bad  # in the last block
            with pytest.raises(ValueError, match=r"\[0, 5\)"):
                ExactSum.grouped_units(values, ids, 5)
