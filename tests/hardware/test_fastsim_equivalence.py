"""The trace simulators' stream entry points run one event at a time.

:meth:`CacheHierarchy.replay` and :meth:`GSharePredictor.run` are the
per-event loops over :meth:`CacheHierarchy.access` and
:meth:`GSharePredictor.predict_and_update`: every stream, short or
long, goes through them, so each reported statistic is the per-event
model's own.  The hierarchy's structural invariants are checked on
arbitrary replayed traces, and ``run``'s rate is the per-event count
over the stream length.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracesim import bernoulli_outcomes, sequential_trace
from repro.hardware import BROADWELL, CacheHierarchy, PrefetcherConfig
from repro.hardware.branch import GSharePredictor

STREAM_LENGTHS = (31, 1_000)


class TestHierarchyEquivalence:
    def test_short_stream_runs_per_event(self):
        """Short and long traces both replay through ``access``."""
        for length in STREAM_LENGTHS:
            calls = []
            hierarchy = CacheHierarchy(BROADWELL, PrefetcherConfig.all_disabled())
            original = hierarchy.access
            hierarchy.access = lambda addr: (calls.append(addr), original(addr))[1]
            assert hierarchy.replay(sequential_trace(length, 64)).accesses == length
            assert len(calls) == length


class TestHierarchyProperties:
    @settings(max_examples=25, deadline=None)
    @given(lines=st.lists(st.integers(min_value=0, max_value=10_000), min_size=32, max_size=400))
    def test_cache_invariants(self, lines):
        addresses = np.array(lines, dtype=np.int64) * 64
        hierarchy = CacheHierarchy(BROADWELL, PrefetcherConfig.all_enabled())
        hierarchy.replay(addresses)
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


class TestGshareEquivalence:
    def test_run_returns_rate(self):
        outcomes = bernoulli_outcomes(8_000, 0.50, seed=22)
        reference = GSharePredictor()
        for taken in outcomes:
            reference.predict_and_update(3, bool(taken))
        reference_rate = reference.mispredictions / len(outcomes)
        predictor = GSharePredictor()
        assert predictor.run(3, outcomes) == reference_rate
        assert predictor.mispredictions == reference.mispredictions

    def test_short_stream_runs_per_event(self):
        """Short and long streams both run through ``predict_and_update``."""
        for length in STREAM_LENGTHS:
            predictor = GSharePredictor()
            calls = []
            original = predictor.predict_and_update
            predictor.predict_and_update = lambda pc, taken: (
                calls.append(pc),
                original(pc, taken),
            )[1]
            predictor.run(5, bernoulli_outcomes(length, 0.5))
            assert len(calls) == length
