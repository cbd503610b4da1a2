"""Exact (error-free) summation of IEEE-754 doubles.

The morsel-parallel executor (:mod:`repro.core.parallel`) must merge
per-morsel partial aggregates into results that are **bit-identical**
to a single-shot run, for *any* partitioning of the rows.  Float
addition is not associative, so partial sums are carried as
arbitrary-precision integers instead: every finite double is an integer
multiple of 2**-1074 (the subnormal quantum), so the *true* sum of any
set of doubles is a Python integer in units of 2**-1074.  Integer
addition is exact and associative, which makes :class:`ExactSum` merges
partition-invariant by construction; the final :meth:`total` rounds the
true sum to the nearest double exactly once (Python's ``int / int``
true division is correctly rounded).

The per-array conversion is binned pre-rounding.  A block of ``rows``
values below 2**E in magnitude is peeled into limbs ``q = (r + M) - M``
with ``M = 1.5 * 2**(E - W + 52)``: ``r + M`` lies in M's binade, whose
spacing is the grid 2**(E - W), so round-to-nearest makes ``q`` the grid
multiple nearest ``r`` (a tie goes either way) and the subtraction is
exact (``|q| <= 2**E`` is W bits of grid).  The residual ``r - q`` is
exact too (a multiple of ``r``'s own ulp, no larger than ``|r|``) and at
most half a grid step, so the next limb peels it with E - W for E, until
nothing is left: one limb for integer-valued columns, two for TPC-H
money and its products.  The one invariant is ``rows * 2**(W + 1) <=
2**53`` (W = 36 at 2**16 rows): a limb's values are multiples of one
grid summing to at most ``rows * 2**W`` grid steps in any order, so
``q.sum()`` and ``np.bincount(ids, weights=q)`` are exact in float64,
and the level sums, as int64 counts of grid steps, fold across blocks
sharing a grid before they become Python integers.  The subnormal end
needs nothing: every double is on a grid below 2**-1074, where ``r + M``
is exact and ``q = r``.  At the overflow end, where ``r + M`` could pass
2**1024, a block's huge rows are summed apart after an exact scaling.
NaN and the infinities surface in the ``max``/``min`` pass that finds E.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Units of the fixed-point representation: 2**-_SHIFT per unit.
_SHIFT = 1074

#: Rows per conversion block (limb width 36) unless groups are many.
_BLOCK = 1 << 16

#: Rows >= 2**_HUGE could overflow the shifter: summed apart, scaled down.
_HUGE = 971


def _float_to_units(value: float) -> int:
    """One finite double as an integer count of 2**-1074 units."""
    if not np.isfinite(value):
        raise ValueError(f"cannot exactly sum non-finite value {value!r}")
    fraction = Fraction(float(value))
    units = fraction * (1 << _SHIFT)
    # Denominators of finite doubles divide 2**1074, so this is exact.
    assert units.denominator == 1
    return units.numerator


def _lift(levels: dict, units: list[int]) -> None:
    """Empty ``levels`` (grid exponent -> int64 steps per group) into ``units``."""
    for grid, steps in levels.items():
        occupied = np.flatnonzero(steps)
        for group, count in zip(occupied.tolist(), steps[occupied].tolist()):
            units[group] += count << (grid + _SHIFT)
    levels.clear()


def _grouped_units(values, group_ids, n_groups: int) -> list[int]:
    """Exact per-group sums of ``values`` in 2**-1074 units.

    ``group_ids`` are dense ids in ``[0, n_groups)`` (``None``: one
    group), checked by the ``np.bincount`` that sums them.  Scratch is
    O(block); a block's O(n_groups) level sums cost less than its rows.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = max(_BLOCK, 4 * n_groups)
    width = 52 - (rows - 1).bit_length()  # rows * 2**(width + 1) <= 2**53
    scratch = np.empty((2, min(rows, values.size)))
    units, levels = [0] * n_groups, {}
    for start in range(0, values.size, rows):
        left = values[start : start + rows]
        ids = group_ids if group_ids is None else group_ids[start : start + rows]
        top = max(left.max(), -left.min())
        if not math.isfinite(top):
            raise ValueError("cannot exactly sum non-finite values")
        exponent = math.frexp(top)[1]  # top < 2**exponent
        if exponent > _HUGE:
            huge = np.abs(left) >= math.ldexp(1.0, _HUGE)
            scaled = left[huge] * math.ldexp(1.0, -_HUGE)
            apart = _grouped_units(scaled, ids if ids is None else ids[huge], n_groups)
            units = [u + (a << _HUGE) for u, a in zip(units, apart)]
            left, exponent = np.where(huge, 0.0, left), _HUGE
        if start % (rows << 10) == 0:  # int64 holds 2**10 folds of <= 2**52 steps
            _lift(levels, units)
        limb, rest = scratch[:, : left.size]
        while True:
            shifter = math.ldexp(1.5, exponent - width + 52)
            np.subtract(np.add(left, shifter, out=limb), shifter, out=limb)
            if ids is None:
                sums = limb.sum(keepdims=True)
            else:
                try:
                    sums = np.bincount(ids, weights=limb, minlength=n_groups)
                except (ValueError, MemoryError):  # a negative or absurd id
                    sums = ()
                if len(sums) != n_groups:
                    raise ValueError(f"group ids must lie in [0, {n_groups})")
            grid = max(exponent - width, -_SHIFT)
            steps = np.ldexp(sums, -grid).astype(np.int64)
            if grid not in levels and len(levels) == 8:  # scratch stays O(block)
                _lift(levels, units)
            levels[grid] = levels.get(grid, 0) + steps
            if (limb == left).all():
                break
            left = np.subtract(left, limb, out=rest)
            exponent -= width
    _lift(levels, units)
    return units


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
        return cls(_grouped_units(values, None, 1)[0])

    @staticmethod
    def grouped_units(values, group_ids, n_groups: int) -> list[int]:
        """Exact units of ``sum(values[group_ids == g])`` for every ``g``
        in ``range(n_groups)`` (0 for empty groups), with no per-group
        intermediate.  ``ExactSum(units[g])`` equals
        ``of_array(values[group_ids == g])`` bit for bit; ``group_ids``
        must be dense integer ids in ``[0, n_groups)``.
        """
        group_ids = np.asarray(group_ids).ravel().astype(np.int64, copy=False)
        if np.size(values) != group_ids.size:
            raise ValueError("values and group_ids must have equal length")
        return _grouped_units(values, group_ids, n_groups)

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
        self.units += _grouped_units(values, None, 1)[0]
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
