"""Exact (error-free) summation of IEEE-754 doubles, in fixed-width limbs.

Morsel partials must merge into results bit-identical to a single-shot
run for any partitioning of the rows (:mod:`repro.core.parallel`).
Every finite double is an integer multiple of 2**-1074, so a sum of
doubles is an integer count of 2**-1074 units: integer addition is
exact and associative, and rounding happens once, at the end.  DESIGN
§2b.3 gives the argument in full.

**State.**  Units are int64 limbs on one fixed lattice, limb k holding
bits [32k, 32k + 32) (weight 2**(32k - 1074)).  An :class:`ExactSum`
is a column of such integers, one per group: a ``(groups, width)``
array plus the index of its first limb.  Limbs are redundant; ``terms``
bounds them by ``terms * 2**32``, so ``+`` adds aligned windows and
carries only once the bound passes 2**30.  Only this module knows the
lattice and the rollups' sign-and-magnitude byte form of it.

**Kernel** (binned pre-rounding).  A block of ``rows`` values below 2**E
is peeled into levels ``q = (r + M) - M``, ``M = 1.5 * 2**(E - W + 52)``:
each level is exact, lies on the grid 2**(E - W), leaves an exact
residual for the next, and, as ``rows * 2**(W + 1) <= 2**53``, sums per
group in float64 without rounding.  Level sums fold across blocks as
int64 grid steps; integer shifts split each grid's steps into the three
limbs that cover it.  Rows from 2**971 up are summed apart, scaled
down; NaN and infinities surface in the pass that finds E.

**Rounding** of a column is vectorised: each group's 64 bits from the
leading one down, everything lower folded into a sticky bit, round in
one uint64 -> float64 conversion.  A column of a few groups divides
each group's Python int (:attr:`ExactSum.units`, the bridge the rational
test oracles and ``details["exact_totals"]`` read) instead.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

#: Units of the fixed-point representation: 2**-_SHIFT per unit.
_SHIFT = 1074

#: Rows per conversion block (level width 36) unless groups are many.
_BLOCK = 1 << 16

#: Rows >= 2**_HUGE could overflow the shifter: summed apart, scaled down.
_HUGE = 971

#: Bits per limb, and the mask of one limb.
_BITS = 32
_MASK = (1 << _BITS) - 1

#: Columns of fewer groups round through the Python-int bridge: below
#: this the vectorised rounding's fixed numpy cost dominates (measured
#: crossover near 28 groups of 4-limb sums on a 2-vCPU x86-64 host).
_BRIDGE_GROUPS = 24

#: Bound on ``terms``: a sum past it carries.  Two sums at the bound
#: add below 2**63, with room for the carry into each limb.
_HEADROOM = 1 << 30


def _split(steps, position):
    """``steps * 2**position`` as the first limb index and the three
    limbs from there: two in [0, 2**32), the top one signed and below
    2**31 in magnitude.  ``steps`` is int64; ``position`` (>= 0) a
    Python int or an int64 array like ``steps``."""
    first, shift = divmod(position, _BITS)
    bottom = (steps & (_MASK >> shift)) << shift
    rest = steps >> (_BITS - shift)
    return first, (bottom, rest & _MASK, rest >> _BITS)


def _carry(limbs: np.ndarray) -> np.ndarray:
    """The same integers one limb wider, in two's complement: every limb
    in [0, 2**32) but the top one, which keeps the sign."""
    out = np.zeros((limbs.shape[1] + 1, len(limbs)), dtype=np.int64)
    out[:-1] = limbs.T
    for limb, above in zip(out, out[1:]):
        above += limb >> _BITS
        limb &= _MASK
    return out.T


def encode_units(units: list[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Python-int units as ``(signs, magnitudes, width)``, the rollup
    storage format: int8 signs and a flat uint8 array of ``len(units) *
    width`` big-endian magnitude bytes (width at least 1)."""
    signs = np.array([(u > 0) - (u < 0) for u in units], dtype=np.int8)
    width = max([1] + [(abs(u).bit_length() + 7) // 8 for u in units])
    raw = bytearray().join(abs(u).to_bytes(width, "big") for u in units)
    return signs, np.frombuffer(raw, dtype=np.uint8), width


def _from_bytes(signs, magnitudes) -> tuple[np.ndarray, int]:
    """Limbs and first-limb index of units given as signs (-1, 0, 1)
    and ``(groups, width)`` big-endian magnitude bytes: padded to whole
    limbs and regrouped four bytes at a time by a view."""
    groups, width = magnitudes.shape
    padded = np.zeros((groups, -(-width // 4) * 4), dtype=np.uint8)
    padded[:, padded.shape[1] - width :] = magnitudes
    limbs = padded.view(">u4")[:, ::-1] * np.asarray(signs, dtype=np.int64)[:, None]
    occupied = np.flatnonzero(limbs.any(axis=0))
    if not len(occupied):
        return limbs[:, :0], 0
    return limbs[:, occupied[0] : occupied[-1] + 1], int(occupied[0])


def _rounded(units: int) -> float:
    """``units * 2**-1074`` correctly rounded (``int / int`` is), or
    signed infinity past the double range."""
    try:
        return units / (1 << _SHIFT)
    except OverflowError:
        return math.inf if units > 0 else -math.inf


def _sums(limbs: np.ndarray, low: int, terms: int) -> "ExactSum":
    """An :class:`ExactSum` over ``limbs`` from limb ``low`` on, carried
    when ``terms`` passes the headroom."""
    if terms > _HEADROOM:
        limbs, terms = _carry(limbs), 1
    sums = object.__new__(ExactSum)
    sums.limbs, sums.low, sums.terms = limbs, low, terms
    return sums


def _aligned(columns) -> tuple[list, int]:
    """The columns' limbs zero-padded onto one window, and its first limb."""
    spans = [(c.low, c.low + c.limbs.shape[1]) for c in columns if c.limbs.shape[1]]
    low = min((start for start, _ in spans), default=0)
    width = max((stop for _, stop in spans), default=0) - low
    arrays = [np.zeros((len(column), width), dtype=np.int64) for column in columns]
    for padded, column in zip(arrays, columns):
        start = column.low - low  # any start for an empty window
        padded[:, start : start + column.limbs.shape[1]] = column.limbs
    return arrays, low


def _place(limbs: dict, levels: dict, offset: int) -> int:
    """Empty ``levels`` (grid exponent -> int64 steps per group) onto
    ``limbs`` (limb index -> int64 per group), each grid split into the
    three limbs that cover it; returns how many levels it placed."""
    for grid, steps in levels.items():
        first, parts = _split(steps, grid + _SHIFT + offset)
        for k, part in enumerate(parts, first):
            limbs[k] = limbs[k] + part if k in limbs else part
    placed = len(levels)
    levels.clear()
    return placed


def _accumulate(limbs: dict, values, group_ids, n_groups: int, offset: int) -> int:
    """Add the exact per-group sums of ``values * 2**offset`` into
    ``limbs`` (limb index -> int64 per group); returns how many levels
    were placed, the ``terms`` bound of the result.

    ``group_ids`` are dense ids in ``[0, n_groups)`` (``None``: one
    group), checked by the ``np.bincount`` that sums them.  Scratch is
    O(block); a block's O(n_groups) level sums cost less than its rows.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = max(_BLOCK, 4 * n_groups)
    width = 52 - (rows - 1).bit_length()  # rows * 2**(width + 1) <= 2**53
    scratch = np.empty((2, min(rows, values.size)))
    levels, placed = {}, 0
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
            placed += _accumulate(
                limbs, scaled, ids if ids is None else ids[huge], n_groups,
                offset + _HUGE,
            )
            left, exponent = np.where(huge, 0.0, left), _HUGE
        if start % (rows << 10) == 0:  # int64 holds 2**10 folds of <= 2**52 steps
            placed += _place(limbs, levels, offset)
        level, rest = scratch[:, : left.size]
        while True:
            shifter = math.ldexp(1.5, exponent - width + 52)
            np.subtract(np.add(left, shifter, out=level), shifter, out=level)
            if ids is None:
                sums = level.sum(keepdims=True)
            else:
                try:
                    sums = np.bincount(ids, weights=level, minlength=n_groups)
                except (ValueError, MemoryError):  # a negative or absurd id
                    sums = ()
                if len(sums) != n_groups:
                    raise ValueError(f"group ids must lie in [0, {n_groups})")
            grid = max(exponent - width, -_SHIFT)
            steps = np.ldexp(sums, -grid).astype(np.int64)
            if grid not in levels and len(levels) == 8:  # scratch stays O(block)
                placed += _place(limbs, levels, offset)
            levels[grid] = levels.get(grid, 0) + steps
            if (level == left).all():
                break
            left = np.subtract(left, level, out=rest)
            exponent -= width
    return placed + _place(limbs, levels, offset)


def _grouped(values, group_ids, n_groups: int) -> "ExactSum":
    limbs: dict[int, np.ndarray] = {}
    terms = _accumulate(limbs, values, group_ids, n_groups, 0)
    low = min(limbs, default=0)
    window = np.zeros((n_groups, max(limbs, default=low - 1) - low + 1), dtype=np.int64)
    for k, part in limbs.items():
        window[:, k - low] = part
    return _sums(window, low, max(terms, 1))


class ExactSum:
    """Exact sums of doubles, one per group, as int64 limbs on the
    lattice of the module docstring.

    Instances merge with ``+`` (exact, associative, commutative; group
    for group), slice by group like arrays, and pickle as their limb
    array, so they are the unit of value state the worker processes
    and shard nodes ship back.
    """

    __slots__ = ("limbs", "low", "terms")

    def __init__(self, units=0):
        """Sums given as Python-int counts of 2**-1074 units: one int
        (one group) or a sequence of ints (one group each)."""
        units = [int(units)] if isinstance(units, Integral) else [int(u) for u in units]
        signs, magnitudes, width = encode_units(units)
        self.limbs, self.low = _from_bytes(signs, magnitudes.reshape(-1, width))
        self.terms = 1

    @classmethod
    def of_array(cls, values) -> "ExactSum":
        return _grouped(values, None, 1)

    @staticmethod
    def grouped_units(values, group_ids, n_groups: int) -> "ExactSum":
        """Exact ``sum(values[group_ids == g])`` for every ``g`` in
        ``range(n_groups)`` (0 for empty groups), with no per-group
        intermediate.  Group ``g`` equals ``of_array(values[group_ids
        == g])`` bit for bit; ``group_ids`` must be dense integer ids in
        ``[0, n_groups)``.
        """
        group_ids = np.asarray(group_ids).ravel().astype(np.int64, copy=False)
        if np.size(values) != group_ids.size:
            raise ValueError("values and group_ids must have equal length")
        return _grouped(values, group_ids, n_groups)

    @classmethod
    def of(cls, *values: float) -> "ExactSum":
        return cls.of_array(np.array(values, dtype=np.float64))

    @classmethod
    def of_counts(cls, values, counts) -> "ExactSum":
        """Exact sum of ``values`` where ``values[i]`` occurs ``counts[i]``
        times (each below 2**36), without materialising the expansion:
        the rebase primitive of code-domain aggregation
        (:mod:`repro.storage.encoding`), equal to ``of_array`` over the
        decoded expansion bit for bit.  Each float64 value is int64
        ``steps * 2**position`` units (``frexp``); the steps split into
        26-bit halves so each times its count fits int64, and the
        products land on their limbs by one scatter-add.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        counts = np.asarray(counts).ravel().astype(np.int64)
        if len(values) != len(counts):
            raise ValueError("values and counts must have equal length")
        present = counts != 0
        values, counts = values[present], counts[present]
        if not np.isfinite(values).all():
            raise ValueError("cannot exactly sum non-finite values")
        if not len(counts):
            return cls()
        if np.abs(counts).max() >> 36:
            raise ValueError("counts must lie below 2**36")
        mantissas, exponents = np.frexp(values)
        steps = np.ldexp(mantissas, 53).astype(np.int64)
        position = exponents.astype(np.int64) - 53 + _SHIFT
        steps >>= np.maximum(-position, 0)  # subnormals: trailing zeros only
        position = np.maximum(position, 0)
        first, parts = _split(
            np.concatenate([(steps & (1 << 26) - 1) * counts, (steps >> 26) * counts]),
            np.concatenate([position, position + 26]),
        )
        low = int(first.min())
        window = np.zeros((1, int(first.max()) - low + 3), dtype=np.int64)
        for k, part in enumerate(parts):
            np.add.at(window[0], first - low + k, part)
        return _sums(window, low, max(len(first), 1))

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

    @classmethod
    def of_bytes(cls, signs, magnitudes) -> "ExactSum":
        """Sums stored as one sign (-1, 0, 1) per group and a
        ``(groups, width)`` uint8 array of big-endian magnitudes (the
        rollup format), with no Python per group."""
        return _sums(*_from_bytes(signs, magnitudes), 1)

    @staticmethod
    def aligned(columns) -> tuple[list, object]:
        """The columns' limbs on one shared window, and the function
        that wraps limbs on that window -- the columns stacked, or added
        group by group -- back into an :class:`ExactSum`."""
        arrays, low = _aligned(columns)
        terms = sum(column.terms for column in columns)
        return arrays, lambda limbs: _sums(limbs, low, terms)

    # -- groups --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.limbs)

    def __getitem__(self, index) -> "ExactSum":
        limbs = self.limbs[index]
        return _sums(limbs if limbs.ndim == 2 else limbs[None], self.low, self.terms)

    def sum(self) -> "ExactSum":
        """The sum over every group, as one group."""
        limbs, terms = self.limbs, self.terms * len(self.limbs)
        if terms > _HEADROOM:
            limbs, terms = _carry(limbs), len(limbs)
        return _sums(limbs.sum(axis=0, keepdims=True), self.low, max(terms, 1))

    def __add__(self, other: "ExactSum") -> "ExactSum":
        if not isinstance(other, ExactSum):
            return NotImplemented
        (mine, theirs), low = _aligned((self, other))
        return _sums(mine + theirs, low, self.terms + other.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactSum) or len(self) != len(other):
            return False
        (mine, theirs), _ = _aligned((self, other))
        return not _carry(mine - theirs).any()

    def __repr__(self) -> str:
        totals = self.totals().tolist()
        return f"ExactSum({totals[0] if len(totals) == 1 else totals!r})"

    def __reduce__(self):
        return (_sums, (self.limbs, self.low, self.terms))

    # -- the exact bridge ----------------------------------------------
    def tolist(self) -> list[int]:
        """Every group's units as a Python int."""
        shifts = [_BITS * (self.low + k) for k in range(self.limbs.shape[1])]
        return [
            sum(limb << shift for limb, shift in zip(row, shifts))
            for row in self.limbs.tolist()
        ]

    @property
    def units(self) -> int:
        """The one group's units as a Python int."""
        (units,) = self.tolist()
        return units

    # -- rounding ------------------------------------------------------
    def totals(self) -> np.ndarray:
        """Every group's true sum correctly rounded to the nearest double
        (ties to even), as one float64 array computed for all groups at
        once.  A sum beyond the double range rounds to signed infinity,
        as IEEE-754 round-to-nearest does with overflow."""
        if len(self) < _BRIDGE_GROUPS:
            return np.array([_rounded(u) for u in self.tolist()], dtype=np.float64)
        magnitude = _carry(self.limbs)
        negative = magnitude[:, -1] < 0
        if negative.any():
            magnitude[negative] = _carry(-self.limbs[negative])
        groups, width = magnitude.shape
        top = width + 1 - (magnitude[:, ::-1] != 0).argmax(axis=1)
        padded = np.zeros((groups, width + 2), dtype=np.uint64)
        padded[:, 2:] = magnitude
        starts = np.arange(0, groups * (width + 2), width + 2)
        trio = padded.ravel()[(starts + top)[:, None] - [0, 1, 2]]  # top three limbs
        high, middle, bottom = trio.T
        # The 64 bits from the leading one down (0 for a zero group), with
        # the sticky bit of everything below folded into bit 0: eleven
        # bits lie below the 53 that survive, so the one correctly
        # rounded uint64 -> float64 conversion rounds as the whole
        # integer would.
        bits = np.frexp(high.astype(np.float64))[1].astype(np.uint64)
        window = (high << (64 - bits)) | (middle << (32 - bits)) | (bottom >> bits)
        below = padded.sum(axis=1) != trio.sum(axis=1)  # limbs < 2**32: exact
        window |= below | (bottom << (64 - bits) != 0)
        exponent = bits.astype(np.int64) + (_BITS * (self.low + top) - 128 - _SHIFT)
        with np.errstate(over="ignore"):
            rounded = np.ldexp(window.astype(np.float64), exponent)
        return np.negative(rounded, out=rounded, where=negative)

    def total(self) -> float:
        """The one group's true sum, correctly rounded to the nearest
        double.  Partials that individually overflow may still cancel
        once merged, so only this final rounding can tell."""
        (total,) = self.totals()
        return float(total)
