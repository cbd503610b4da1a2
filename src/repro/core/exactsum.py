"""Exact (error-free) summation of IEEE-754 doubles.

The morsel-parallel executor (:mod:`repro.core.parallel`) must merge
per-morsel partial aggregates into results that are **bit-identical**
to a single-shot run, for *any* partitioning of the rows.  Plain float
accumulation cannot deliver that -- float addition is not associative
-- so partial sums are carried as arbitrary-precision integers instead:

Every finite double is an integer multiple of 2**-1074 (the subnormal
quantum), so the *true* sum of any set of doubles is representable as a
Python integer in units of 2**-1074.  Integer addition is exact and
associative, which makes :class:`ExactSum` merges partition-invariant
by construction; the final :meth:`total` rounds the true sum to the
nearest double exactly once (Python's ``int / int`` true division is
correctly rounded).

The per-array conversion is vectorized and sort-free: per block of at
most 2**16 rows ``np.frexp`` splits values into a 53-bit integer
mantissa and an exponent, the hi/lo 26-bit mantissa halves are summed
per ``(group, exponent)`` cell with ``np.bincount`` (float64 weights
are exact: a block's |sum| < 2**16 * 2**27 = 2**43 < 2**53), and only
the occupied cells are lifted into Python integers.  The whole-array
sum is the one-group case of the grouped form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Units of the fixed-point representation: 2**-_SHIFT per unit.
_SHIFT = 1074

#: Rows per conversion block.  With the mantissa split below, a block's
#: per-cell sums are bounded by 2**16 * 2**27 = 2**43 < 2**53, so
#: ``np.bincount``'s float64 accumulation is exact.
_BLOCK = 1 << 16
_LO_BITS = 26
_LO_MASK = (1 << _LO_BITS) - 1

#: A dense (group x exponent) cell table is used while it has at most
#: this many cells per block row; sparser cell sets are factorised.
_DENSE_CELLS_PER_ROW = 4


def _float_to_units(value: float) -> int:
    """One finite double as an integer count of 2**-1074 units."""
    if not np.isfinite(value):
        raise ValueError(f"cannot exactly sum non-finite value {value!r}")
    fraction = Fraction(float(value))
    units = fraction * (1 << _SHIFT)
    # Denominators of finite doubles divide 2**1074, so this is exact.
    assert units.denominator == 1
    return units.numerator


def _grouped_units(values, group_ids, n_groups: int) -> list[int]:
    """Exact per-group sums of ``values`` in 2**-1074 units.

    ``group_ids`` are dense ids in ``[0, n_groups)`` (``None``: one
    group).  Scratch memory is O(block), whatever the array length.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    units = [0] * n_groups
    for start in range(0, values.size, _BLOCK):
        block = values[start : start + _BLOCK]
        if not np.isfinite(block).all():
            raise ValueError("cannot exactly sum non-finite values")
        mantissa, exponent = np.frexp(block)
        # mantissa in +-[0.5, 1); mantissa * 2**53 is an exact int64
        # (doubles have 53 significant bits), value = m53 * 2**(e - 53).
        m53 = np.ldexp(mantissa, 53).astype(np.int64)
        exp_lo = int(exponent.min())
        span = int(exponent.max()) - exp_lo + 1
        cells = exponent - exp_lo
        if group_ids is not None:
            cells = group_ids[start : start + _BLOCK] * span + cells
        # m53 = hi * 2**26 + lo with |hi| <= 2**27 and 0 <= lo < 2**26,
        # so both per-cell block sums stay below 2**43 and float64
        # weights accumulate them exactly.
        hi, lo = m53 >> _LO_BITS, m53 & _LO_MASK
        n_cells = n_groups * span
        if n_cells <= _DENSE_CELLS_PER_ROW * block.size:
            hi_sums = np.bincount(cells, weights=hi, minlength=n_cells)
            lo_sums = np.bincount(cells, weights=lo, minlength=n_cells)
            occupied = np.flatnonzero((hi_sums != 0) | (lo_sums != 0))
            hi_sums, lo_sums = hi_sums[occupied], lo_sums[occupied]
        else:
            # Many groups, few rows each: factorise the occupied cells
            # instead of allocating the (group x exponent) table.
            occupied, inverse = np.unique(cells, return_inverse=True)
            hi_sums = np.bincount(inverse, weights=hi, minlength=len(occupied))
            lo_sums = np.bincount(inverse, weights=lo, minlength=len(occupied))
        for cell, hi_sum, lo_sum in zip(
            occupied.tolist(),
            hi_sums.astype(np.int64).tolist(),
            lo_sums.astype(np.int64).tolist(),
        ):
            group, exp = divmod(cell, span)
            cell_sum = (hi_sum << _LO_BITS) + lo_sum
            shift = exp + exp_lo - 53 + _SHIFT
            if shift >= 0:
                units[group] += cell_sum << shift
            else:
                # Subnormal inputs: the mantissa has trailing zero bits,
                # so the right shift is still exact.
                assert cell_sum % (1 << -shift) == 0
                units[group] += cell_sum >> -shift
    return units


def _array_to_units(values: np.ndarray) -> int:
    """The exact sum of an array of doubles, in 2**-1074 units."""
    return _grouped_units(values, None, 1)[0]


class ExactSum:
    """A partial sum of doubles carried exactly as a Python integer.

    Instances merge with ``+`` (exact, associative, commutative) and
    pickle as a single integer, so they are the unit of value state the
    worker processes ship back to the parent.
    """

    __slots__ = ("units",)

    def __init__(self, units: int = 0):
        self.units = int(units)

    @classmethod
    def of_array(cls, values) -> "ExactSum":
        return cls(_array_to_units(np.asarray(values)))

    @staticmethod
    def grouped_units(values, group_ids, n_groups: int) -> list[int]:
        """Exact units of ``sum(values[group_ids == g])`` for every
        ``g`` in ``range(n_groups)`` (0 for empty groups), without
        materialising any per-group intermediate.

        ``ExactSum(units[g])`` equals ``of_array(values[group_ids == g])``
        bit for bit; ``group_ids`` must be dense integer ids in
        ``[0, n_groups)``.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        group_ids = np.asarray(group_ids).ravel()
        if len(values) != len(group_ids):
            raise ValueError("values and group_ids must have equal length")
        if len(group_ids) and not (
            0 <= int(group_ids.min()) and int(group_ids.max()) < n_groups
        ):
            raise ValueError(f"group ids must lie in [0, {n_groups})")
        return _grouped_units(values, group_ids.astype(np.int64, copy=False), n_groups)

    @classmethod
    def of(cls, *values: float) -> "ExactSum":
        total = 0
        for value in values:
            total += _float_to_units(value)
        return cls(total)

    @classmethod
    def of_counts(cls, values, counts) -> "ExactSum":
        """Exact sum of ``values`` where ``values[i]`` occurs ``counts[i]``
        times, without materialising the expansion.

        This is the rebase primitive of code-domain aggregation
        (:mod:`repro.storage.encoding`): a dictionary/RLE/FoR codec
        reduces an aggregate to per-code (or per-run) occurrence counts,
        and ``sum(units(v) * count(v))`` equals ``of_array`` over the
        decoded expansion *bit for bit* -- each value is converted to
        float64 first, exactly the rounding ``of_array``'s
        ``np.asarray(..., dtype=float64)`` applies, and the per-value
        units are exact integers, so scaling by an integer count is
        exact too.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        counts = np.asarray(counts).ravel()
        if len(values) != len(counts):
            raise ValueError("values and counts must have equal length")
        total = 0
        for value, count in zip(values.tolist(), counts.tolist()):
            count = int(count)
            if count:
                total += _float_to_units(value) * count
        return cls(total)

    @classmethod
    def of_integer_total(cls, total: int) -> "ExactSum":
        """An already-exact integer sum, lifted into units.

        The FoR identity ``sum(values) = reference * count + sum(codes)``
        produces an arbitrary-precision Python integer; ``total * 2**1074``
        represents it exactly.  Callers must guarantee every *individual*
        summed value converts to float64 exactly (|value| <= 2**53), so
        the decoded path's per-element float64 conversion is the
        identity and both paths sum the same multiset of units.
        """
        return cls(int(total) << _SHIFT)

    def add_array(self, values) -> "ExactSum":
        self.units += _array_to_units(np.asarray(values))
        return self

    def __add__(self, other: "ExactSum") -> "ExactSum":
        if not isinstance(other, ExactSum):
            return NotImplemented
        return ExactSum(self.units + other.units)

    def __iadd__(self, other: "ExactSum") -> "ExactSum":
        if not isinstance(other, ExactSum):
            return NotImplemented
        self.units += other.units
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactSum) and self.units == other.units

    def __hash__(self) -> int:
        return hash(("ExactSum", self.units))

    def __repr__(self) -> str:
        return f"ExactSum({self.total()!r})"

    # Pickle as the bare integer: cheap and version-stable.
    def __reduce__(self):
        return (ExactSum, (self.units,))

    def total(self) -> float:
        """The true sum, correctly rounded to the nearest double.

        A true sum beyond the double range rounds to signed infinity
        (what IEEE-754 round-to-nearest does with overflow), not an
        exception -- partials that individually overflow may still
        cancel once merged, so only the final rounding can tell.
        """
        if self.units == 0:
            return 0.0
        try:
            # int / int is correctly rounded (it is what
            # ``float(Fraction)`` evaluates, minus the gcd reduction).
            return self.units / (1 << _SHIFT)
        except OverflowError:
            return math.inf if self.units > 0 else -math.inf
