"""The key-addressed merge leaf: :class:`GroupedPartial`.

Rows are split into blocks, each block is aggregated into a leaf by a
row-at-a-time dict (sharing nothing with the leaf's merge), and the
leaves are merged in a random order and tree shape.  The result must be
the leaf of the whole row set, bit for bit: keys (values and dtypes),
integer counts, integer-valued float sums and exact units (limb
columns, compared through their Python-int bridge).  The block
splits are drawn so that every merge path runs: identical key sets,
disjoint ascending ranges, overlaps, empty blocks and zero-key blocks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exactsum import ExactSum
from repro.engines.morsel import GroupedPartial, merge_states

#: Key column generators: a narrow int, a float from a few values, a
#: wide int (its fold is factorised, not offset).
KEY_VALUES = (
    st.integers(-4, 4),
    st.sampled_from((0.0, 0.5, 1.25, -3.0)),
    st.integers(-(1 << 40), 1 << 40),
)
KEY_DTYPES = (np.int64, np.float64, np.int64)


def _row(n_keys: int):
    return st.tuples(
        st.tuples(*KEY_VALUES[:n_keys]),
        st.integers(1, 50),  # an integer-valued quantity
        st.integers(-(1 << 1100), 1 << 1100),  # ExactSum units
    )


def leaf(rows, n_keys: int) -> GroupedPartial:
    """The leaf of ``rows`` by a dict, one row at a time."""
    groups: dict = {} if n_keys else {(): (0, 0.0, 0)}
    for key, quantity, units in rows:
        count, qty, total = groups.get(key, (0, 0.0, 0))
        groups[key] = (count + 1, qty + quantity, total + units)
    keys = sorted(groups)
    return GroupedPartial(
        tuple(
            np.array([key[i] for key in keys], dtype=KEY_DTYPES[i])
            for i in range(n_keys)
        ),
        {
            "n": np.array([groups[k][0] for k in keys], dtype=np.int64),
            "qty": np.array([groups[k][1] for k in keys], dtype=np.float64),
            "units": ExactSum([groups[k][2] for k in keys]),
        },
    )


def assert_same(got: GroupedPartial, want: GroupedPartial) -> None:
    assert len(got.keys) == len(want.keys)
    for mine, theirs in zip(got.keys, want.keys):
        assert mine.dtype == theirs.dtype
        assert mine.tolist() == theirs.tolist()
    assert got.columns.keys() == want.columns.keys()
    for name in ("n", "qty"):
        assert got.columns[name].dtype == want.columns[name].dtype
        assert got.columns[name].tolist() == want.columns[name].tolist()
    assert got.columns["units"].tolist() == want.columns["units"].tolist()


def blocks_by(mode: str, rows, n_blocks: int, rng) -> list[list]:
    """Split ``rows`` into ``n_blocks`` (some possibly empty)."""
    if mode == "random":
        blocks = [[] for _ in range(n_blocks)]
        for row in rows:
            blocks[rng.randrange(n_blocks)].append(row)
        return blocks
    if mode == "key-ranges":  # disjoint ascending key ranges
        keys = sorted({row[0] for row in rows})
        cuts = sorted(rng.randrange(len(keys) + 1) for _ in range(n_blocks - 1))
        bounds = [keys[c] if c < len(keys) else None for c in cuts]
        blocks = [[] for _ in range(n_blocks)]
        for row in rows:
            index = sum(1 for bound in bounds if bound is not None and row[0] >= bound)
            blocks[index].append(row)
        return blocks
    # "replicated": every block sees every key of the row set.
    keys = sorted({row[0] for row in rows})
    return [
        [(key, rng.randint(1, 50), rng.randint(-(1 << 80), 1 << 80)) for key in keys]
        for _ in range(n_blocks)
    ]


def merge_randomly(leaves: list, rng) -> GroupedPartial:
    leaves = list(leaves)
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        leaves[i : i + 2] = [leaves[i] + leaves[i + 1]]
    return leaves[0]


@settings(max_examples=150, deadline=None)
@given(
    n_keys=st.integers(0, 3),
    data=st.data(),
    mode=st.sampled_from(("random", "key-ranges", "replicated")),
    n_blocks=st.integers(1, 6),
    rng=st.randoms(use_true_random=False),
)
def test_any_merge_of_blocks_equals_one_block(n_keys, data, mode, n_blocks, rng):
    rows = data.draw(st.lists(_row(n_keys), max_size=40))
    blocks = blocks_by(mode, rows, n_blocks, rng)
    rng.shuffle(blocks)
    leaves = [leaf(block, n_keys) for block in blocks]
    whole = leaf([row for block in blocks for row in block], n_keys)
    assert_same(merge_randomly(leaves, rng), whole)


#: Units (2**-1074 each) of doubles below 2**-1000 and of doubles from
#: 2**900 up: a 53-bit signed mantissa shifted to an exponent of 900..1023.
TINY_UNITS = st.integers(-(1 << 73), 1 << 73)
HUGE_UNITS = st.builds(
    lambda mantissa, exponent, negative: (-mantissa if negative else mantissa)
    << (exponent - 52 + 1074),
    st.integers(1 << 52, (1 << 53) - 1), st.integers(900, 1023), st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(
    n_keys=st.integers(0, 2),
    data=st.data(),
    n_blocks=st.integers(2, 5),
    rng=st.randoms(use_true_random=False),
)
def test_blocks_on_disjoint_limb_windows_merge_exactly(n_keys, data, n_blocks, rng):
    """Blocks alternate between sums below 2**-1000 and above 2**900,
    so their unit columns sit on limb windows that share no limb; any
    merge order and tree shape still gives the leaf of all rows."""
    blocks = []
    for index in range(n_blocks):
        units = TINY_UNITS if index % 2 else HUGE_UNITS
        row = st.tuples(st.tuples(*KEY_VALUES[:n_keys]), st.integers(1, 50), units)
        blocks.append(data.draw(st.lists(row, min_size=1, max_size=12)))
    leaves = [leaf(block, n_keys) for block in blocks]
    huge, tiny = leaves[0].columns["units"], leaves[1].columns["units"]
    # Disjoint windows (unless the huge block cancelled to nothing).
    assert not huge.limbs.size or tiny.low + tiny.limbs.shape[1] <= huge.low
    rng.shuffle(leaves)
    whole = leaf([row for block in blocks for row in block], n_keys)
    assert_same(merge_randomly(leaves, rng), whole)


@settings(max_examples=60, deadline=None)
@given(n_keys=st.integers(0, 3), data=st.data())
def test_pickle_round_trip(n_keys, data):
    original = leaf(data.draw(st.lists(_row(n_keys), max_size=20)), n_keys)
    assert_same(pickle.loads(pickle.dumps(original)), original)


def test_each_merge_path():
    """Identical keys add, disjoint ranges concatenate in either order,
    overlaps take the union, and an empty side is the identity."""
    rows = {
        "a": [((1,), 2, 5), ((3,), 1, 7)],
        "b": [((1,), 4, 1), ((3,), 1, 1)],  # a's keys
        "c": [((5,), 3, 2)],  # after a's keys
        "d": [((3,), 1, 1), ((4,), 2, 2)],  # overlaps a's
    }
    a, b, c, d = (leaf(rows[name], 1) for name in "abcd")
    assert_same(a + b, leaf(rows["a"] + rows["b"], 1))
    assert (a + b).keys[0] is a.keys[0]
    assert_same(a + c, leaf(rows["a"] + rows["c"], 1))
    assert_same(c + a, a + c)
    assert_same(a + d, leaf(rows["a"] + rows["d"], 1))
    empty = leaf([], 1)
    assert (a + empty) is a and (empty + a) is a
    assert_same(leaf([], 0) + leaf([((), 3, 4)], 0), leaf([((), 3, 4)], 0))


def test_incongruent_partials_refuse_to_merge():
    with pytest.raises(ValueError, match="congruent"):
        leaf([((1,), 1, 1)], 1) + leaf([((1, 0.5), 1, 1)], 2)


def test_merge_states_adds_the_leaf():
    left = {"groups": leaf([((1,), 1, 1)], 1), "candidates": 1}
    merge_states(left, {"groups": leaf([((2,), 1, 1)], 1), "candidates": 1})
    assert_same(left["groups"], leaf([((1,), 1, 1), ((2,), 1, 1)], 1))
    assert left["candidates"] == 2
