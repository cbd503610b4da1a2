"""Equivalence tests: batch simulation kernels vs. the reference models.

The vectorized/fused kernels in :mod:`repro.hardware.fastsim` must be
*exactly* equivalent to the per-event reference loops -- identical
reported statistics, identical cache contents (including LRU order and
prefetched flags), identical predictor state -- on every trace shape
the repo uses.  The reference path stays selectable via
``REPRO_REFERENCE_SIM=1`` and serves as the oracle here.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import settings as repro_settings
from repro.core.tracesim import (
    bernoulli_outcomes,
    random_trace,
    sequential_trace,
    sparse_trace,
)
from repro.hardware import BROADWELL, SKYLAKE, CacheHierarchy, PrefetcherConfig
from repro.hardware import fastsim
from repro.hardware.branch import GSharePredictor


def reference_replay(hierarchy, addresses):
    """The per-event oracle, bypassing the batch dispatch."""
    for addr in addresses:
        hierarchy.access(int(addr))
    return hierarchy.stats


def hierarchy_stats(hierarchy):
    """Every reported statistic of a hierarchy, as plain data."""
    return {
        "hierarchy": dataclasses.asdict(hierarchy.stats),
        "l1": dataclasses.asdict(hierarchy.l1.stats),
        "l2": dataclasses.asdict(hierarchy.l2.stats),
        "l3": dataclasses.asdict(hierarchy.l3.stats),
        "prefetches_issued": hierarchy.prefetches_issued(),
    }


def cache_contents(hierarchy):
    """Full contents of all levels: lines in LRU->MRU order with their
    prefetched flags (tick values themselves are representation detail;
    only their order is behaviour)."""
    levels = []
    for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
        levels.append(
            [
                [
                    (line, bool(entry[1]))
                    for line, entry in sorted(
                        cache_set.items(), key=lambda item: item[1][0]
                    )
                ]
                for cache_set in cache._sets
            ]
        )
    return levels


RNG = np.random.default_rng(1234)

TRACES = {
    "sequential": sequential_trace(16_000, stride_bytes=8),
    "sequential_wide": sequential_trace(8_000, stride_bytes=256),
    "random": random_trace(12_000, working_set_bytes=1 << 24, seed=3),
    "random_small_ws": random_trace(12_000, working_set_bytes=1 << 14, seed=4),
    "sparse": sparse_trace(24_000, density=0.1, seed=5),
    "mixed": np.concatenate(
        [
            sequential_trace(6_000, stride_bytes=8),
            random_trace(6_000, working_set_bytes=1 << 22, seed=6),
        ]
    ),
    "repeated": np.repeat(
        np.arange(0, 2_000 * 64, 64, dtype=np.int64), 4
    ),
}

CONFIGS = PrefetcherConfig.figure26_configs()


class TestHierarchyEquivalence:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_stats_and_contents_identical(self, trace_name, config_name):
        trace = TRACES[trace_name]
        config = CONFIGS[config_name]
        reference = CacheHierarchy(BROADWELL, config)
        reference_replay(reference, trace)
        fast = CacheHierarchy(BROADWELL, config)
        fastsim.replay_hierarchy(fast, trace)
        assert hierarchy_stats(fast) == hierarchy_stats(reference)
        assert cache_contents(fast) == cache_contents(reference)

    @pytest.mark.parametrize("config_name", ["All disabled", "All enabled"])
    def test_skylake_spec(self, config_name):
        config = CONFIGS[config_name]
        trace = TRACES["mixed"]
        reference = CacheHierarchy(SKYLAKE, config)
        reference_replay(reference, trace)
        fast = CacheHierarchy(SKYLAKE, config)
        fastsim.replay_hierarchy(fast, trace)
        assert hierarchy_stats(fast) == hierarchy_stats(reference)
        assert cache_contents(fast) == cache_contents(reference)

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_chunked_replay_preserves_state(self, config_name):
        """Multiple batch calls on one hierarchy must be equivalent to
        one long reference replay (state continuity across calls)."""
        config = CONFIGS[config_name]
        trace = TRACES["mixed"]
        reference = CacheHierarchy(BROADWELL, config)
        reference_replay(reference, trace)
        fast = CacheHierarchy(BROADWELL, config)
        for chunk in np.array_split(trace, 9):
            fastsim.replay_hierarchy(fast, chunk)
        assert hierarchy_stats(fast) == hierarchy_stats(reference)
        assert cache_contents(fast) == cache_contents(reference)

    def test_batch_then_scalar_access_agrees(self):
        """Future per-event accesses see the exact post-batch state."""
        trace = TRACES["random_small_ws"]
        reference = CacheHierarchy(BROADWELL, PrefetcherConfig.all_enabled())
        reference_replay(reference, trace)
        fast = CacheHierarchy(BROADWELL, PrefetcherConfig.all_enabled())
        fastsim.replay_hierarchy(fast, trace)
        probes = random_trace(2_000, working_set_bytes=1 << 14, seed=9)
        for addr in probes:
            assert fast.access(int(addr)) == reference.access(int(addr))

    def test_reference_env_forces_scalar_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE_SIM", "1")
        assert repro_settings.enabled("reference_sim")
        calls = []
        hierarchy = CacheHierarchy(BROADWELL, PrefetcherConfig.all_disabled())
        original = hierarchy.access
        hierarchy.access = lambda addr: (calls.append(addr), original(addr))[1]
        hierarchy.replay(sequential_trace(100, 64))
        assert len(calls) == 100

    def test_replay_dispatches_to_batch(self, monkeypatch):
        monkeypatch.delenv("REPRO_REFERENCE_SIM", raising=False)
        hierarchy = CacheHierarchy(BROADWELL, PrefetcherConfig.all_disabled())
        hierarchy.access = None  # batch path must not call access()
        stats = hierarchy.replay(sequential_trace(1_000, 64))
        assert stats.accesses == 1_000


class TestHierarchyProperties:
    """Hypothesis property tests: invariants plus reference equivalence
    on adversarial short traces (set-conflict-heavy address space)."""

    @settings(max_examples=15, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=2_000), min_size=32, max_size=300),
        config_index=st.integers(min_value=0, max_value=5),
    )
    def test_matches_reference_on_arbitrary_traces(self, lines, config_index):
        config = list(CONFIGS.values())[config_index]
        addresses = np.array(lines, dtype=np.int64) * 64
        reference = CacheHierarchy(BROADWELL, config)
        reference_replay(reference, addresses)
        fast = CacheHierarchy(BROADWELL, config)
        fastsim.replay_hierarchy(fast, addresses)
        assert hierarchy_stats(fast) == hierarchy_stats(reference)
        assert cache_contents(fast) == cache_contents(reference)

    @settings(max_examples=25, deadline=None)
    @given(lines=st.lists(st.integers(min_value=0, max_value=10_000), min_size=32, max_size=400))
    def test_cache_invariants(self, lines):
        addresses = np.array(lines, dtype=np.int64) * 64
        hierarchy = CacheHierarchy(BROADWELL, PrefetcherConfig.all_enabled())
        fastsim.replay_hierarchy(hierarchy, addresses)
        for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            stats = cache.stats
            assert stats.hits + stats.misses == stats.accesses
            assert stats.prefetch_hits <= stats.hits
            assert 0 <= stats.miss_rate <= 1
            for cache_set in cache._sets:
                assert len(cache_set) <= cache._ways
                for line, entry in cache_set.items():
                    assert line % cache._n_sets is not None
                    assert entry[0] <= cache._tick
        stats = hierarchy.stats
        assert (
            stats.l1_hits + stats.l2_hits + stats.l3_hits + stats.memory_accesses
            == stats.accesses
        )
        assert stats.total_latency_cycles >= stats.accesses * BROADWELL.l1_access_cycles


def predictor_state(predictor):
    return {
        "table": predictor._table.copy(),
        "history": predictor._history,
        "predictions": predictor.predictions,
        "mispredictions": predictor.mispredictions,
    }


def assert_same_predictor(fast, reference):
    assert fast._history == reference._history
    assert fast.predictions == reference.predictions
    assert fast.mispredictions == reference.mispredictions
    assert np.array_equal(fast._table, reference._table)


BRANCH_STREAMS = {
    "p10": bernoulli_outcomes(8_000, 0.10, seed=21),
    "p50": bernoulli_outcomes(8_000, 0.50, seed=22),
    "p90": bernoulli_outcomes(8_000, 0.90, seed=23),
    "alternating": np.tile([True, False], 4_000),
    "clustered": np.repeat(bernoulli_outcomes(250, 0.5, seed=24), 33),
    "all_taken": np.ones(5_000, dtype=bool),
    "all_not_taken": np.zeros(5_000, dtype=bool),
}


class TestGshareEquivalence:
    @pytest.mark.parametrize("stream_name", sorted(BRANCH_STREAMS))
    def test_counts_and_state_identical(self, stream_name):
        outcomes = BRANCH_STREAMS[stream_name]
        reference = GSharePredictor()
        for taken in outcomes:
            reference.predict_and_update(0x4F21, bool(taken))
        fast = GSharePredictor()
        added = fastsim.gshare_run_batch(fast, 0x4F21, outcomes)
        assert added == reference.mispredictions
        assert_same_predictor(fast, reference)

    def test_batch_then_scalar_updates_agree(self):
        """predict_and_update after a batch run sees the exact state."""
        outcomes = BRANCH_STREAMS["p50"]
        reference = GSharePredictor()
        for taken in outcomes:
            reference.predict_and_update(7, bool(taken))
        fast = GSharePredictor()
        fastsim.gshare_run_batch(fast, 7, outcomes)
        tail = bernoulli_outcomes(500, 0.3, seed=31)
        for taken in tail:
            assert fast.predict_and_update(7, bool(taken)) == (
                reference.predict_and_update(7, bool(taken))
            )
        assert_same_predictor(fast, reference)

    def test_chunked_runs_preserve_state(self):
        outcomes = BRANCH_STREAMS["p50"]
        reference = GSharePredictor()
        for taken in outcomes:
            reference.predict_and_update(11, bool(taken))
        fast = GSharePredictor()
        for chunk in np.array_split(outcomes, 5):
            fastsim.gshare_run_batch(fast, 11, chunk)
        assert_same_predictor(fast, reference)

    def test_run_returns_rate(self):
        outcomes = BRANCH_STREAMS["p50"]
        reference = GSharePredictor()
        for taken in outcomes:
            reference.predict_and_update(3, bool(taken))
        reference_rate = reference.mispredictions / len(outcomes)
        fast = GSharePredictor()
        assert fast.run(3, outcomes) == pytest.approx(reference_rate)

    def test_reference_env_forces_scalar_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE_SIM", "1")
        predictor = GSharePredictor()
        calls = []
        original = predictor.predict_and_update
        predictor.predict_and_update = lambda pc, taken: (
            calls.append(pc),
            original(pc, taken),
        )[1]
        predictor.run(5, bernoulli_outcomes(200, 0.5))
        assert len(calls) == 200

    @settings(max_examples=30, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), min_size=32, max_size=400),
        pc=st.integers(min_value=0, max_value=1 << 16),
    )
    def test_property_equivalence(self, outcomes, pc):
        outcomes = np.array(outcomes, dtype=bool)
        reference = GSharePredictor(table_bits=6, history_bits=4)
        for taken in outcomes:
            reference.predict_and_update(pc, bool(taken))
        fast = GSharePredictor(table_bits=6, history_bits=4)
        fastsim.gshare_run_batch(fast, pc, outcomes)
        assert_same_predictor(fast, reference)

    def test_zero_history_bits(self):
        outcomes = BRANCH_STREAMS["p50"]
        reference = GSharePredictor(history_bits=0)
        for taken in outcomes:
            reference.predict_and_update(42, bool(taken))
        fast = GSharePredictor(history_bits=0)
        fastsim.gshare_run_batch(fast, 42, outcomes)
        assert_same_predictor(fast, reference)
