"""Chained hash table for joins and group-bys, with chain statistics.

All profiled systems use hash joins for the join micro-benchmark
(Section 2) and hash aggregation for group-bys.  This implementation
builds a real bucket-chained table (head array + next links, Fibonacci
hashing into a power-of-two bucket array).  The work of a probe is the
number of key comparisons the hardware would make: a hit costs its
1-based position in its chain, a miss the chain's length.  Both are
properties of the built table, not of the probe, so the build counts
them once: the stable bucket sort that links the chains also gives
every entry its ``depth``, and ``bucket_counts`` is every chain's
length.

How a probe reads them depends on the table's own keys.  When the key
domain is dense (``max - min + 1 <= DENSE_SLOTS_PER_BUCKET *
n_buckets``, which every TPC-H primary key and every filtered subset
of one is) the build also lays out two arrays with one slot per domain
value: ``row_of_key`` (the build row, or -1) and ``cost_of_key`` (the
entry's depth if the key is present, else the length of the chain the
key hashes to, from hashing the domain once).  A probe is then an
offset, two gathers and a sum.  Any other table (composite keys, keys
beyond int64) is probed by walking it: hash, load the bucket head,
compare, follow ``next`` to a match or the end of the chain, batched
over a shrinking set of active probes, each comparison one element of
one round.  Both give the same integers.  The chain-length statistics
the paper reports in Section 6 (join chains 0-1, mean 0.44; group-by
chains 0-7, mean 0.23, more irregular) are measured on the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: 64-bit Fibonacci (golden-ratio) multiplicative hashing constant.
FIBONACCI_64 = np.uint64(0x9E3779B97F4A7C15)

#: Bytes per hash-table entry: key (8) + payload slot (8) + next (8).
ENTRY_BYTES = 24
#: Bytes per bucket head pointer.
HEAD_BYTES = 8

#: A table whose key domain has at most this many slots per bucket is
#: probed by direct address.  Q9's green-part table sets the value: it
#: keeps ~6 % of ``p_partkey`` and a 0.5-load table has 2-4 buckets per
#: key, so its domain is 4-8.3 slots per bucket at any scale factor
#: (2 418 keys, 8 192 buckets, 39 938 slots at SF 0.2) and it takes
#: 1.2 M probes per query.  A slot is 8 bytes of ``row_of_key`` plus
#: one of ``cost_of_key`` (two once a chain is longer than 255), so the
#: arrays stay under 64 slots = 576 bytes per key; Q9's partsupp table
#: (80 M slots for 160 k keys, 150 per bucket) stays a chain walk.
DENSE_SLOTS_PER_BUCKET = 16

_INT64_MAX = np.iinfo(np.int64).max


def next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def _fibonacci_hash(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """``key * phi64`` as a fresh uint64 array the caller may fold in
    place: int64 keys are reinterpreted, narrower ones widened."""
    if n_buckets & (n_buckets - 1):
        raise ValueError("n_buckets must be a power of two")
    if keys.dtype.itemsize == 8 and keys.dtype.kind in "iu":
        return keys.view(np.uint64) * FIBONACCI_64
    return keys.astype(np.uint64) * FIBONACCI_64


def fibonacci_bucket(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """Vectorised Fibonacci hashing of int keys into ``n_buckets``
    (a power of two): the top log2(n_buckets) bits of key * phi64."""
    hashed = _fibonacci_hash(keys, n_buckets)
    hashed >>= np.uint64(64 - int(n_buckets).bit_length() + 1)
    return hashed.view(np.int64)


def weak_composite_bucket(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """The weaker hash group-by operators effectively apply to
    composite grouping keys: hash each component and combine with
    XOR-shift.  Correlated components collide far more often than
    evenly distributed primary/foreign keys, producing the irregular
    chains the paper measures for group-by tables."""
    hashed = _fibonacci_hash(keys, n_buckets)
    hashed ^= hashed >> np.uint64(32)
    hashed &= np.uint64(n_buckets - 1)
    return hashed.view(np.int64)


@dataclass(frozen=True)
class ChainStats:
    """Distribution of bucket chain lengths (over *all* buckets)."""

    mean: float
    std: float
    max: int
    n_buckets: int
    n_keys: int

    @property
    def load_factor(self) -> float:
        return self.n_keys / self.n_buckets if self.n_buckets else 0.0

    @classmethod
    def of_buckets(cls, bucket_counts: np.ndarray, n_keys: int) -> "ChainStats":
        """The statistics of a table with the given keys-per-bucket."""
        counts = bucket_counts
        return cls(
            mean=float(counts.mean()) if len(counts) else 0.0,
            std=float(counts.std()) if len(counts) else 0.0,
            max=int(counts.max()) if len(counts) else 0,
            n_buckets=len(counts),
            n_keys=n_keys,
        )


@dataclass(frozen=True)
class ProbeResult:
    """Outcome and cost of a batch probe."""

    found: np.ndarray  # bool per probe key
    match_index: np.ndarray  # index into the build rows (-1 if missing)
    comparisons: int  # total key comparisons walked
    extra_walk: int  # comparisons beyond the first (dependent chain loads)

    @property
    def hit_fraction(self) -> float:
        return float(self.found.mean()) if len(self.found) else 0.0


def _key_vector(keys, side: str) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise TypeError(
            f"{side} keys must be integers, not {keys.dtype}: build and "
            "probe keys have to hash alike"
        )
    if keys.ndim != 1:
        raise ValueError(f"{side} keys must be one-dimensional")
    return keys


def chain_layout(buckets: np.ndarray, bucket_counts: np.ndarray):
    """``(order, depth)`` of a table whose entries ``0..n-1`` were
    inserted in order at the head of their bucket's chain: ``order``
    groups the entries by bucket, oldest first (the stable sort), and
    ``depth`` is each entry's 1-based position in its chain, so a
    bucket's newest entry has depth 1 and its oldest the bucket's
    count.  Depths use the narrowest unsigned dtype that holds the
    longest chain."""
    order = np.argsort(buckets, kind="stable")
    # Bucket b fills sorted slots [chain_end[b] - count[b], chain_end[b]).
    chain_end = np.cumsum(bucket_counts)
    depth = np.empty(len(buckets), dtype=np.min_scalar_type(int(bucket_counts.max())))
    depth[order] = chain_end[buckets[order]] - np.arange(len(buckets))
    return order, depth


class ChainedHashTable:
    """Bucket-chained hash table over unique integer build keys.

    Values are inserted at the head of their chain (the classic
    insert-at-head layout), so a probe meets a bucket's keys in reverse
    insertion order.  The table is immutable once built, so its chain
    statistics are computed at first use and kept.

    ``row_of_key`` and ``cost_of_key`` exist on a table with a dense
    key domain and are ``None`` on any other (see the module docstring).
    """

    def __init__(
        self,
        keys: np.ndarray,
        target_load: float = 0.5,
        hash_fn=fibonacci_bucket,
    ):
        keys = _key_vector(keys, "build")
        if not 0.0 < target_load <= 1.0:
            raise ValueError("target_load must be in (0, 1]")
        self.keys = keys
        self.n_keys = len(keys)
        self.n_buckets = next_power_of_two(max(1, int(np.ceil(self.n_keys / target_load))))
        self._hash_fn = hash_fn
        self.buckets = hash_fn(keys, self.n_buckets) if self.n_keys else np.empty(0, np.int64)
        self.bucket_counts = np.bincount(self.buckets, minlength=self.n_buckets)
        self.head = np.full(self.n_buckets, -1, dtype=np.int64)
        self.next = np.full(self.n_keys, -1, dtype=np.int64)
        self._build_chains()
        self.row_of_key = self.cost_of_key = None
        if self.n_keys:
            # Python ints: a span wider than int64 cannot wrap here.
            low, high = int(keys.min()), int(keys.max())
            if high <= _INT64_MAX and high - low < DENSE_SLOTS_PER_BUCKET * self.n_buckets:
                self._address_domain(low, high - low + 1)
        # A duplicate sits behind its later twin in the same chain, and
        # the twin overwrote its domain slot: probing for it finds the twin.
        if not np.array_equal(self.probe(keys).match_index, np.arange(self.n_keys)):
            raise ValueError("build keys must be unique (join build side)")

    def _build_chains(self) -> None:
        """Vectorised head/next/depth construction equivalent to
        inserting keys 0..n-1 at the head of their bucket chains in
        order."""
        order, self.depth = chain_layout(self.buckets, self.bucket_counts)
        if not self.n_keys:
            return
        # Within a bucket the stable sort keeps insertion order: the
        # head is the last-inserted key and next links run backwards
        # through the insertion order.
        sorted_buckets = self.buckets[order]
        same_as_prev = sorted_buckets[1:] == sorted_buckets[:-1]
        self.next[order[1:][same_as_prev]] = order[:-1][same_as_prev]
        last_of_group = np.concatenate((~same_as_prev, [True]))
        self.head[sorted_buckets[last_of_group]] = order[last_of_group]

    def _address_domain(self, low: int, span: int) -> None:
        """Lay out the two per-domain-slot arrays over ``[low, low +
        span)``.  One more slot past the end stands for every key
        outside the domain: no row, and no cost (``_look_up`` adds
        those keys' chain lengths itself)."""
        self._low, self._span = low, span
        slots = self._slots(self.keys)
        self.row_of_key = np.full(span + 1, -1, dtype=np.int64)
        self.row_of_key[slots] = np.arange(self.n_keys)
        domain = low + np.arange(span, dtype=np.int64)
        self.cost_of_key = np.zeros(span + 1, dtype=self.depth.dtype)
        self.cost_of_key[:span] = self.bucket_counts[self._hash_fn(domain, self.n_buckets)]
        self.cost_of_key[slots] = self.depth

    # ------------------------------------------------------------------
    @property
    def working_set_bytes(self) -> int:
        """Bytes a probe touches at random: bucket heads + entries."""
        return self.n_buckets * HEAD_BYTES + self.n_keys * ENTRY_BYTES

    @cached_property
    def _chain_stats(self) -> ChainStats:
        return ChainStats.of_buckets(self.bucket_counts, self.n_keys)

    def chain_stats(self) -> ChainStats:
        return self._chain_stats

    def chain_of(self, key: int) -> list[int]:
        """Walk one chain the way the hardware would (test helper)."""
        bucket = int(self._hash_fn(np.asarray([key]), self.n_buckets)[0])
        chain = []
        cursor = int(self.head[bucket])
        while cursor != -1:
            chain.append(cursor)
            cursor = int(self.next[cursor])
        return chain

    def probe(self, probe_keys: np.ndarray) -> ProbeResult:
        """Batch probe: by direct address where the table laid its key
        domain out, else by walking the chains."""
        probe_keys = _key_vector(probe_keys, "probe")
        if self.row_of_key is None:
            match_index, comparisons = self._walk(probe_keys)
        else:
            match_index, comparisons = self._look_up(probe_keys)
        found = match_index >= 0
        return ProbeResult(
            found=found,
            match_index=match_index,
            comparisons=comparisons,
            extra_walk=comparisons - int(np.count_nonzero(found)),
        )

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Offset of every key into the domain, with each key outside
        it at ``span``.  The subtraction may wrap: unsigned, a wrapped
        offset is still past the domain, because two int64 values that
        are congruent modulo 2**64 are equal."""
        offsets = (keys.astype(np.int64, copy=False) - self._low).view(np.uint64)
        np.minimum(offsets, self._span, out=offsets)
        if keys.dtype == np.uint64:
            # A key past int64 is in no int64 domain; the cast wrapped it.
            offsets[keys > _INT64_MAX] = self._span
        return offsets.view(np.int64)

    def _look_up(self, probe_keys: np.ndarray) -> tuple[np.ndarray, int]:
        """(build row or -1 per probe key, total key comparisons), read
        from the per-domain-slot arrays."""
        slots = self._slots(probe_keys)
        comparisons = int(self.cost_of_key.take(slots).sum(dtype=np.int64))
        outside = slots == self._span
        if outside.any():
            buckets = self._hash_fn(probe_keys[outside], self.n_buckets)
            comparisons += int(self.bucket_counts[buckets].sum())
        return self.row_of_key.take(slots), comparisons

    def _walk(self, probe_keys: np.ndarray) -> tuple[np.ndarray, int]:
        """(build row or -1 per probe key, total key comparisons), by
        walking the chains: every round compares the still-active probes
        with the entry under their cursor, retires the hits, advances
        the misses along ``next`` and drops those whose chain ended."""
        match_index = np.full(len(probe_keys), -1, dtype=np.int64)
        comparisons = 0
        cursor = self.head[self._hash_fn(probe_keys, self.n_buckets)]
        active = np.flatnonzero(cursor >= 0)
        cursor = cursor[active]
        while len(active):
            comparisons += len(active)
            hit = self.keys[cursor] == probe_keys[active]
            match_index[active[hit]] = cursor[hit]
            miss = ~hit
            cursor = self.next[cursor[miss]]
            live = cursor >= 0
            cursor = cursor[live]
            active = active[miss][live]
        return match_index, comparisons


class GroupByHashTable:
    """Hash aggregation table over (possibly composite) group keys.

    Groups are identified exactly (``np.unique``); the bucket structure
    over the *distinct* keys provides chain statistics and per-update
    probe costs, using the weaker composite hash that makes group-by
    chains irregular (Section 6).  Immutable once built: the chain and
    update statistics are computed at first use and kept.
    """

    def __init__(
        self,
        group_keys: np.ndarray,
        target_load: float = 0.4,
        hash_fn=weak_composite_bucket,
    ):
        group_keys = np.asarray(group_keys)
        self.distinct_keys, self.group_ids = np.unique(group_keys, return_inverse=True)
        self.n_groups = len(self.distinct_keys)
        self.n_updates = len(group_keys)
        self.n_buckets = next_power_of_two(
            max(1, int(np.ceil(self.n_groups / target_load)))
        )
        self.buckets = hash_fn(self.distinct_keys, self.n_buckets)
        self.bucket_counts = np.bincount(self.buckets, minlength=self.n_buckets)
        # Depth of each distinct key in its chain (insert-at-head order
        # of first appearance), and of each update's group: gathered
        # once, the engines slice it per morsel.
        _, self._depth = chain_layout(self.buckets, self.bucket_counts)
        self._update_depths = self._depth[self.group_ids]

    @property
    def working_set_bytes(self) -> int:
        return self.n_buckets * HEAD_BYTES + self.n_groups * ENTRY_BYTES

    @cached_property
    def _chain_stats(self) -> ChainStats:
        return ChainStats.of_buckets(self.bucket_counts, self.n_groups)

    def chain_stats(self) -> ChainStats:
        return self._chain_stats

    def update_depths(self, lo: int, hi: int) -> np.ndarray:
        """Chain depth each of the updates ``[lo, hi)`` walks to: the
        1-based position of its group's entry in its bucket chain."""
        return self._update_depths[lo:hi]

    @cached_property
    def _update_stats(self) -> tuple[int, float]:
        """(comparisons, collision fraction) over all updates."""
        depths = self.update_depths(0, self.n_updates)
        collisions = float((depths > 1).mean()) if self.n_updates else 0.0
        return int(depths.sum(dtype=np.int64)), collisions

    def update_comparisons(self) -> int:
        """Total key comparisons over all aggregation updates: each
        update walks to its group's chain depth."""
        return self._update_stats[0]

    def collision_fraction(self) -> float:
        """Fraction of updates that walk past the first chain entry
        (the hash-collision branches of Section 6)."""
        return self._update_stats[1]

    def aggregate_sum(self, values: np.ndarray) -> np.ndarray:
        """SUM(values) per group, aligned with ``distinct_keys``."""
        return np.bincount(self.group_ids, weights=values, minlength=self.n_groups)

    def aggregate_count(self) -> np.ndarray:
        return np.bincount(self.group_ids, minlength=self.n_groups)
