"""Chained hash-table tests: structure, probes, exact work accounting,
and the Section 6 chain statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import (
    ChainedHashTable,
    ChainStats,
    GroupByHashTable,
    fibonacci_bucket,
    next_power_of_two,
    weak_composite_bucket,
)
from repro.engines.hashtable import DENSE_SLOTS_PER_BUCKET


class TestHelpers:
    def test_next_power_of_two(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4
        assert next_power_of_two(1025) == 2048

    def test_fibonacci_bucket_range(self):
        buckets = fibonacci_bucket(np.arange(1000, dtype=np.int64), 256)
        assert buckets.min() >= 0
        assert buckets.max() < 256

    def test_fibonacci_spreads_dense_keys_evenly(self):
        """Dense keys land almost collision-free: the join-table
        regularity of Section 6."""
        buckets = fibonacci_bucket(np.arange(1000, dtype=np.int64), 4096)
        counts = np.bincount(buckets, minlength=4096)
        assert counts.max() <= 2

    def test_weak_composite_bucket_range(self):
        buckets = weak_composite_bucket(np.arange(1000, dtype=np.int64) * 7, 256)
        assert buckets.min() >= 0
        assert buckets.max() < 256

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            fibonacci_bucket(np.arange(4), 100)
        with pytest.raises(ValueError):
            weak_composite_bucket(np.arange(4), 100)


class TestBuild:
    @pytest.mark.parametrize(
        "keys",
        ([2, 2, 1, 3, 4], [1, 3, 4, 2, 2], [1, 2, 2, 3, 4], [2, 1, 3, 4, 2]),
        ids=("first", "last", "adjacent", "ends"),
    )
    def test_rejects_duplicate_keys(self, keys):
        with pytest.raises(ValueError, match="unique"):
            ChainedHashTable(np.array(keys))

    @pytest.mark.parametrize("dtype", (np.float64, np.float32, bool, object))
    def test_rejects_non_integer_keys(self, dtype):
        """Build and probe keys must hash alike; a float would be
        truncated by the hash but not by the comparison."""
        with pytest.raises(TypeError, match="integers"):
            ChainedHashTable(np.array([1, 2, 3]).astype(dtype))
        table = ChainedHashTable(np.array([1, 2, 3]))
        with pytest.raises(TypeError, match="integers"):
            table.probe(np.array([1, 2]).astype(dtype))

    @pytest.mark.parametrize(
        "stride, per_slot",
        ((7, {"row_of_key", "cost_of_key"}), (7_000, set())),
        ids=("dense", "sparse"),
    )
    def test_per_key_arrays_and_per_domain_slot_arrays(self, stride, per_slot):
        """Per key the table holds its keys, buckets, next links and
        chain depths: no sorted copy of the keys and no key order.  The
        two per-domain-slot arrays (one slot per domain value plus the
        one for keys outside it) exist on a dense table only."""
        table = ChainedHashTable(np.arange(1, 38) * stride)
        arrays = {
            name: value for name, value in vars(table).items() if isinstance(value, np.ndarray)
        }
        per_key = {name for name, value in arrays.items() if len(value) == table.n_keys}
        assert per_key == {"keys", "buckets", "next", "depth"}
        domain_slots = 36 * stride + 2
        assert {name for name, value in arrays.items() if len(value) == domain_slots} == per_slot
        assert set(arrays) == per_key | per_slot | {"head", "bucket_counts"}
        if not per_slot:
            assert table.row_of_key is None and table.cost_of_key is None

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="build keys must be one-dimensional"):
            ChainedHashTable(np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("stride", (1, 7_000), ids=("lookup", "walk"))
    def test_probe_rejects_2d_and_types_an_empty_probe(self, stride):
        table = ChainedHashTable(np.arange(1, 38) * stride)
        assert (table.row_of_key is None) == (stride > 1)
        with pytest.raises(ValueError, match="probe keys must be one-dimensional"):
            table.probe(np.ones((2, 2), dtype=np.int64))
        empty = table.probe(np.array([], dtype=np.int32))
        assert empty.found.dtype == bool and empty.found.shape == (0,)
        assert empty.match_index.dtype == np.int64 and empty.match_index.shape == (0,)
        assert (empty.comparisons, empty.extra_walk) == (0, 0)
        assert type(empty.comparisons) is int and type(empty.extra_walk) is int

    def test_rejects_bad_load(self):
        with pytest.raises(ValueError):
            ChainedHashTable(np.arange(4), target_load=0.0)

    def test_bucket_count_honours_target_load(self):
        table = ChainedHashTable(np.arange(1000), target_load=0.5)
        assert table.n_buckets >= 2000
        assert table.n_buckets == next_power_of_two(2000)

    def test_chain_walk_finds_every_key(self):
        keys = np.arange(100, dtype=np.int64) * 13 + 1
        table = ChainedHashTable(keys)
        for index, key in enumerate(keys):
            assert index in table.chain_of(int(key))

    def test_head_next_structure_consistent(self):
        """Walking every chain visits every key exactly once."""
        keys = np.arange(500, dtype=np.int64)
        table = ChainedHashTable(keys)
        visited = []
        for bucket in range(table.n_buckets):
            cursor = int(table.head[bucket])
            while cursor != -1:
                visited.append(cursor)
                cursor = int(table.next[cursor])
        assert sorted(visited) == list(range(500))

    def test_working_set_bytes(self):
        table = ChainedHashTable(np.arange(100))
        assert table.working_set_bytes == table.n_buckets * 8 + 100 * 24

    def test_empty_table(self):
        table = ChainedHashTable(np.array([], dtype=np.int64))
        result = table.probe(np.array([1, 2]))
        assert not result.found.any()
        assert result.comparisons == 0


class TestProbe:
    def test_found_matches_membership(self):
        keys = np.array([2, 4, 6, 8, 10], dtype=np.int64)
        table = ChainedHashTable(keys)
        probes = np.array([1, 2, 3, 4, 10, 11])
        result = table.probe(probes)
        assert result.found.tolist() == [False, True, False, True, True, False]

    def test_match_index_points_to_build_row(self):
        keys = np.array([30, 10, 20], dtype=np.int64)
        table = ChainedHashTable(keys)
        result = table.probe(np.array([10, 20, 30, 40]))
        assert result.match_index.tolist()[:3] == [1, 2, 0]
        assert result.match_index[3] == -1

    def test_hit_fraction(self):
        table = ChainedHashTable(np.arange(10))
        result = table.probe(np.array([0, 1, 100, 200]))
        assert result.hit_fraction == pytest.approx(0.5)

    def test_comparisons_exact_single_bucket(self):
        """Force every key into one bucket and check the walk counts."""
        keys = np.array([5, 9, 13], dtype=np.int64)
        table = ChainedHashTable(keys, hash_fn=lambda k, n: np.zeros(len(k), np.int64))
        # Head-insertion: probing key inserted last costs 1 comparison,
        # first-inserted costs 3.
        assert table.probe(np.array([13])).comparisons == 1
        assert table.probe(np.array([9])).comparisons == 2
        assert table.probe(np.array([5])).comparisons == 3
        # A miss walks the full chain.
        assert table.probe(np.array([99])).comparisons == 3

    def test_extra_walk_counts_beyond_first(self):
        keys = np.array([5, 9], dtype=np.int64)
        table = ChainedHashTable(keys, hash_fn=lambda k, n: np.zeros(len(k), np.int64))
        result = table.probe(np.array([5]))
        assert result.comparisons == 2
        assert result.extra_walk == 1


class TestChainStats:
    def test_join_table_chains_regular(self):
        """Dense FK keys: chains 0-1, the paper's join shape."""
        stats = ChainedHashTable(np.arange(1, 20_001)).chain_stats()
        assert stats.max <= 2
        assert 0.2 <= stats.mean <= 0.5
        assert stats.std <= 0.55

    def test_groupby_table_chains_irregular(self):
        """Composite group keys: longer tails, the paper's group-by
        shape (0-7, mean 0.23, std 0.5)."""
        rng = np.random.default_rng(5)
        composite = rng.integers(1, 50_000, 100_000) * 4 + rng.integers(0, 3, 100_000)
        stats = GroupByHashTable(composite).chain_stats()
        assert stats.max >= 4
        assert 0.15 <= stats.mean <= 0.45
        assert 0.3 <= stats.std <= 0.8

    def test_load_factor(self):
        table = ChainedHashTable(np.arange(1024), target_load=0.5)
        assert table.chain_stats().load_factor == pytest.approx(0.5)


def recomputed_chain_stats(table, n_keys: int) -> ChainStats:
    """``chain_stats()`` as it was computed per call before the tables
    kept it: the same numpy reductions over ``bucket_counts``."""
    counts = table.bucket_counts
    return ChainStats(
        mean=float(counts.mean()),
        std=float(counts.std()),
        max=int(counts.max()),
        n_buckets=table.n_buckets,
        n_keys=n_keys,
    )


class TestCachedStatistics:
    """Both tables are immutable once built, so each statistic is
    computed at first use and kept: the same object on every call, the
    same floats a fresh computation gives."""

    def test_join_table_chain_stats_computed_once(self):
        table = ChainedHashTable(np.arange(1, 5_001) * 7)
        stats = table.chain_stats()
        assert table.chain_stats() is stats
        assert stats == recomputed_chain_stats(table, table.n_keys)

    def test_groupby_table_statistics_computed_once(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(1, 3_000, 20_000) * 4 + rng.integers(0, 3, 20_000)
        table = GroupByHashTable(keys)
        stats = table.chain_stats()
        assert table.chain_stats() is stats
        assert stats == recomputed_chain_stats(table, table.n_groups)
        depths = table._depth[table.group_ids]
        assert table.collision_fraction() == float((depths > 1).mean())
        assert table.update_comparisons() == int(depths.sum())

    def test_empty_tables(self):
        empty = np.array([], dtype=np.int64)
        assert ChainedHashTable(empty).chain_stats() == ChainStats(0.0, 0.0, 0, 1, 0)
        table = GroupByHashTable(empty)
        assert table.chain_stats() == ChainStats(0.0, 0.0, 0, 1, 0)
        assert (table.update_comparisons(), table.collision_fraction()) == (0, 0.0)


class TestGroupByTable:
    def test_aggregate_sum_matches_numpy(self):
        keys = np.array([3, 1, 3, 2, 1, 3])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        table = GroupByHashTable(keys)
        sums = table.aggregate_sum(values)
        assert table.distinct_keys.tolist() == [1, 2, 3]
        assert sums.tolist() == [7.0, 4.0, 10.0]

    def test_aggregate_count(self):
        table = GroupByHashTable(np.array([1, 1, 2]))
        assert table.aggregate_count().tolist() == [2, 1]

    def test_update_comparisons_at_least_one_per_update(self):
        table = GroupByHashTable(np.arange(1000) % 50)
        assert table.update_comparisons() >= table.n_updates

    def test_collision_fraction_bounds(self):
        table = GroupByHashTable(np.arange(1000) % 50)
        assert 0.0 <= table.collision_fraction() <= 1.0

    def test_empty(self):
        table = GroupByHashTable(np.array([], dtype=np.int64))
        assert table.n_groups == 0
        assert table.collision_fraction() == 0.0


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=-10_000, max_value=10_000),
        min_size=1, max_size=300, unique=True,
    ),
    probes=st.lists(st.integers(min_value=-10_000, max_value=10_000), max_size=300),
)
def test_property_probe_equivalent_to_dict(keys, probes):
    keys_arr = np.array(keys, dtype=np.int64)
    probes_arr = np.array(probes, dtype=np.int64)
    table = ChainedHashTable(keys_arr)
    result = table.probe(probes_arr)
    lookup = {key: index for index, key in enumerate(keys)}
    for i, probe in enumerate(probes):
        assert result.found[i] == (probe in lookup)
        if probe in lookup:
            assert result.match_index[i] == lookup[probe]


def _few_buckets(n_live: int):
    """Adversarial hash: every key lands in one of ``n_live`` buckets,
    whatever the table's size, so chains are long."""
    return lambda keys, n_buckets: (keys.astype(np.int64) % min(n_live, n_buckets))


@settings(max_examples=160, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-60, max_value=60), max_size=40, unique=True),
    probes=st.lists(st.integers(min_value=-70, max_value=70), max_size=80),
    n_live=st.integers(min_value=1, max_value=4),
    build_dtype=st.sampled_from((np.int64, np.int32)),
    probe_dtype=st.sampled_from((np.int64, np.int32)),
    stride=st.sampled_from((1, 4099)),
)
def test_property_probe_counts_equal_python_chain_walk(
    keys, probes, n_live, build_dtype, probe_dtype, stride
):
    """``comparisons`` and ``extra_walk`` are the walk's own counts: a
    hit costs its 1-based position in ``chain_of``, a miss the chain's
    length -- for negative, unsorted, repeated and narrower probe keys,
    an empty probe and an empty table, on a dense key draw (stride 1:
    probed by direct address) and on the same draw spread out (stride
    4099: probed by the walk)."""
    keys = [key * stride for key in keys]
    probes = [probe * stride for probe in probes]
    table = ChainedHashTable(np.array(keys, dtype=build_dtype), hash_fn=_few_buckets(n_live))
    if len(keys) >= 8:
        # Both paths are exercised: 8 keys have >= 16 buckets, whose guard
        # (256 slots) holds any stride-1 draw (<= 121 slots), and two keys
        # a stride apart outspan the largest table's (128 buckets, 2 048).
        assert (table.row_of_key is None) == (stride > 1)
    result = table.probe(np.array(probes, dtype=probe_dtype))

    comparisons = hits = 0
    for i, probe in enumerate(probes):
        chain = table.chain_of(probe)
        position = next((p for p, row in enumerate(chain) if keys[row] == probe), None)
        if position is None:
            comparisons += len(chain)
            assert not result.found[i] and result.match_index[i] == -1
        else:
            comparisons += position + 1
            hits += 1
            assert result.found[i] and result.match_index[i] == chain[position]
    assert result.comparisons == comparisons
    assert result.extra_walk == comparisons - hits
    assert result.found.dtype == bool and len(result.found) == len(probes)


def assert_lookup_equals_walk(table, probe_keys):
    """The table's own ``probe`` (direct address) against the chain
    walk over the same head/next arrays."""
    assert table.row_of_key is not None
    result = table.probe(probe_keys)
    match_index, comparisons = table._walk(probe_keys)
    assert result.match_index.dtype == match_index.dtype
    assert np.array_equal(result.match_index, match_index)
    assert np.array_equal(result.found, match_index >= 0) and result.found.dtype == bool
    assert result.comparisons == comparisons and type(result.comparisons) is int
    assert result.extra_walk == comparisons - np.count_nonzero(match_index >= 0)


@settings(max_examples=150, deadline=None)
@given(
    low=st.integers(min_value=-300, max_value=300),
    offsets=st.lists(st.integers(min_value=0, max_value=199), min_size=7, max_size=120, unique=True),
    probes=st.lists(st.integers(min_value=-260, max_value=260), max_size=80),
    hash_fn=st.sampled_from((fibonacci_bucket, _few_buckets(1), _few_buckets(3))),
    build_dtype=st.sampled_from((np.int64, np.int32)),
    probe_dtype=st.sampled_from((np.int64, np.int32)),
)
def test_property_lookup_equals_walk(low, offsets, probes, hash_fn, build_dtype, probe_dtype):
    """Direct address and chain walk return the same ``ProbeResult``
    on a dense table: full and filtered domains, negative keys, mixed
    widths, repeated probe keys, probes on either side of the domain,
    regular and adversarially long chains."""
    table = ChainedHashTable(np.array(offsets, dtype=build_dtype) + build_dtype(low), hash_fn=hash_fn)
    # Probes around the domain's middle reach below, inside and above it.
    assert_lookup_equals_walk(table, np.array(probes, dtype=probe_dtype) + probe_dtype(low + 100))


_INSIDE_AND_AROUND = {  # offsets from the domain's lowest key
    "all": np.arange(0, 100),
    "repeats": np.array([50, 50, 1, 50, 1, 0, 0]),
    "holes": np.arange(1, 100, 2),
    "below": np.arange(-100, 0),
    "above": np.arange(99, 200),
    "straddle": np.arange(-50, 150),
    "empty": np.array([], dtype=np.int64),
}
_FAR_AWAY = {  # absolute keys: their offsets wrap
    "wrap": np.array([-(2**63), 2**63 - 1, 0, 100]),
    # Past int64; as int64 these are -199 (a key), -150 (a hole), ...
    "uint64": np.array([2**64 - 199, 2**64 - 150, 2**63 + 100, 100], dtype=np.uint64),
}


@pytest.mark.parametrize("case", (*_INSIDE_AND_AROUND, *_FAR_AWAY))
@pytest.mark.parametrize("low", (100, -199), ids=("positive", "negative"))
def test_lookup_equals_walk_at_the_domain_edges(case, low):
    """A filtered subset (every other key) of a 99-wide domain."""
    table = ChainedHashTable(np.arange(low, low + 99, 2), hash_fn=_few_buckets(3))
    probes = _INSIDE_AND_AROUND[case] + low if case in _INSIDE_AND_AROUND else _FAR_AWAY[case]
    assert_lookup_equals_walk(table, probes)


def test_empty_table_is_walked_and_costs_nothing():
    table = ChainedHashTable(np.array([], dtype=np.int64))
    assert table.row_of_key is None
    result = table.probe(np.arange(-3, 4))
    assert not result.found.any() and (result.match_index == -1).all()
    assert (result.comparisons, result.extra_walk) == (0, 0)


def test_density_guard_boundary():
    """The same chains just under and just over the guard: the top key
    moves by one bucket cycle of the hash, so only the path changes."""
    n_live = 3
    base = np.arange(40)
    table_slots = DENSE_SLOTS_PER_BUCKET * next_power_of_two(2 * 41)
    results = {}
    for name, top in (("under", table_slots - 1), ("over", table_slots - 1 + n_live)):
        table = ChainedHashTable(np.append(base, top), hash_fn=_few_buckets(n_live))
        assert (table.row_of_key is None) == (name == "over")
        probes = np.concatenate((base[::3], [top, top, -1, 45, top + n_live], base[::-5]))
        results[name] = table.probe(probes)
    under, over = results.values()
    assert np.array_equal(under.found, over.found)
    assert np.array_equal(under.match_index, over.match_index)
    assert (under.comparisons, under.extra_walk) == (over.comparisons, over.extra_walk)
    assert under.comparisons > len(under.found)  # long chains: the walk has work to count


@pytest.mark.parametrize(
    "keys",
    (
        np.array([2**63 + 5, 2**63 + 6, 3], dtype=np.uint64),  # beyond int64
        np.array([-(2**63), 2**63 - 1, 0]),                     # max - min overflows int64
    ),
    ids=("uint64-top", "span-overflow"),
)
def test_keys_no_int64_offset_can_address_take_the_walk(keys):
    table = ChainedHashTable(keys)
    assert table.row_of_key is None
    result = table.probe(np.concatenate((keys[::-1], keys[:1] + keys.dtype.type(2))))
    assert result.match_index.tolist() == [2, 1, 0, -1]
    assert result.found.tolist() == [True, True, True, False]
    with pytest.raises(ValueError, match="unique"):
        ChainedHashTable(np.append(keys, keys[0]))


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-60, max_value=60), max_size=80),
    n_live=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_property_update_depths_slice_the_per_update_depths(keys, n_live, data):
    """``update_depths(lo, hi)`` is the public view of what the engines
    used to index out of the private ``_depth``: each update's 1-based
    position in its group's bucket chain, for any sub-range."""
    table = GroupByHashTable(np.array(keys, dtype=np.int64), hash_fn=_few_buckets(n_live))
    lo = data.draw(st.integers(min_value=0, max_value=len(keys)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(keys)))
    depths = table.update_depths(lo, hi)
    assert np.array_equal(depths, table._depth[table.group_ids[lo:hi]])
    assert len(depths) == hi - lo and (depths >= 1).all()
    # Depths within a bucket are a permutation of 1..chain length.
    for bucket in np.unique(table.buckets):
        chain = np.sort(table._depth[table.buckets == bucket])
        assert chain.tolist() == list(range(1, len(chain) + 1))


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=400)
)
def test_property_groupby_sums_match_bincount(keys):
    keys_arr = np.array(keys, dtype=np.int64)
    values = np.ones(len(keys))
    table = GroupByHashTable(keys_arr)
    sums = table.aggregate_sum(values)
    assert sums.sum() == pytest.approx(len(keys))
    assert (sums >= 1).all()
    assert table.bucket_counts.sum() == table.n_groups
