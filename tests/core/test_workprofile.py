"""WorkProfile recording/merging/scaling tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkProfile


class TestRecording:
    def test_record_work_accumulates(self):
        work = WorkProfile()
        work.record_work(instructions=10, alu=4, loads=2, stores=1, simd=3, hash_ops=2, chain=1)
        work.record_work(instructions=5)
        assert work.instructions == 15
        assert work.alu_ops == 4
        assert work.chain_ops == 1

    def test_record_work_rejects_negative(self):
        with pytest.raises(ValueError):
            WorkProfile().record_work(instructions=-1)

    def test_sequential_traffic(self):
        work = WorkProfile()
        work.record_sequential_read(100)
        work.record_sequential_write(50)
        assert work.seq_bytes == 150
        assert work.streamed_bytes == 150

    def test_sparse_scans_counted_in_streamed(self):
        work = WorkProfile()
        work.record_sparse_scan("gather", 64.0, 0.5)
        assert work.sparse_bytes == 64.0
        assert work.streamed_bytes == 64.0

    def test_sparse_scan_validation(self):
        with pytest.raises(ValueError):
            WorkProfile().record_sparse_scan("g", 10.0, 0.0)
        with pytest.raises(ValueError):
            WorkProfile().record_sparse_scan("g", -1.0, 0.5)

    def test_cached_traffic_events(self):
        work = WorkProfile()
        work.record_cached_traffic(read=80, write=80)
        assert work.cached_access_events == pytest.approx(20.0)
        work.record_cached_traffic(read=320, write=320, access_bytes=64)
        assert work.cached_access_events == pytest.approx(30.0)

    def test_random_pattern_counting(self):
        work = WorkProfile()
        work.record_random("probe", 100, 1 << 20)
        work.record_random("walk", 50, 1 << 20, dependent=True)
        assert work.random_access_count == 150
        assert work.random_bytes == 150 * 64

    def test_branch_outcomes_measured(self):
        work = WorkProfile()
        work.record_branch_outcomes("pred", np.array([True, False, True, True]))
        (stream,) = work.branch_streams
        assert stream.count == 4
        assert stream.taken_fraction == pytest.approx(0.75)

    def test_branch_stream_validation(self):
        with pytest.raises(ValueError):
            WorkProfile().record_branch_stream("b", 10, 1.5)
        with pytest.raises(ValueError):
            WorkProfile().record_branch_stream("b", 10, 0.5, mispredict_rate=2.0)

    def test_instructions_per_tuple(self):
        work = WorkProfile(tuples=10)
        work.record_work(instructions=100)
        assert work.instructions_per_tuple() == 10.0
        assert WorkProfile().instructions_per_tuple() == 0.0

    def test_ops_view(self):
        work = WorkProfile()
        work.record_work(alu=4, loads=2, stores=1, simd=8, hash_ops=3)
        ops = work.ops
        assert ops.alu_ops == 4
        assert ops.simd_ops == 8
        assert ops.hash_ops == 3


class TestMerge:
    def test_merge_accumulates_everything(self):
        a = WorkProfile(tuples=10)
        a.record_work(instructions=10, stores=2)
        a.record_sequential_read(100)
        b = WorkProfile(tuples=5)
        b.record_work(instructions=20)
        b.record_random("probe", 7, 1 << 22)
        b.record_branch_stream("x", 3, 0.5)
        a.merge(b)
        assert a.tuples == 15
        assert a.instructions == 30
        assert len(a.random_patterns) == 1
        assert len(a.branch_streams) == 1

    def test_merge_takes_min_ilp(self):
        a = WorkProfile(effective_ilp=3.5)
        b = WorkProfile(effective_ilp=2.0)
        a.merge(b)
        assert a.effective_ilp == 2.0

    def test_merge_takes_max_footprint(self):
        a = WorkProfile(code_footprint_bytes=1000)
        b = WorkProfile(code_footprint_bytes=9000)
        a.merge(b)
        assert a.code_footprint_bytes == 9000


class TestScaled:
    def test_volume_quantities_scale(self):
        work = WorkProfile(tuples=100)
        work.record_work(instructions=1000, alu=10, chain=4)
        work.record_sequential_read(800)
        work.record_random("probe", 60, 1 << 22)
        work.record_sparse_scan("g", 64, 0.5)
        work.record_branch_stream("b", 100, 0.3)
        half = work.scaled(0.5)
        assert half.instructions == 500
        assert half.seq_read_bytes == 400
        assert half.random_patterns[0].count == 30
        assert half.sparse_scans[0].bytes_touched == 32
        assert half.branch_streams[0].count == 50

    def test_intensive_quantities_preserved(self):
        work = WorkProfile(code_footprint_bytes=5000, effective_ilp=2.5)
        work.record_random("probe", 60, 1 << 22, dependent=True, mlp_hint=10.0)
        work.record_branch_stream("b", 100, 0.3, mispredict_rate=0.1)
        half = work.scaled(0.5)
        assert half.code_footprint_bytes == 5000
        assert half.effective_ilp == 2.5
        assert half.random_patterns[0].working_set_bytes == 1 << 22
        assert half.random_patterns[0].dependent
        assert half.random_patterns[0].mlp_hint == 10.0
        assert half.branch_streams[0].taken_fraction == 0.3
        assert half.branch_streams[0].mispredict_rate == 0.1

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            WorkProfile().scaled(-0.1)

    def test_copy_keeps_every_value_and_type(self):
        """``repr`` tells ``60`` from ``60.0``, where ``==`` does not."""
        work = WorkProfile(tuples=100, pending={"rows": 7})
        work.record_random("probe", 60, 1 << 22)
        work.record_gather("g", 4096, 40, 64)
        work.record_branch_stream("b", 100, 0.3)
        clone = work.copy()
        assert repr(clone) == repr(work)
        assert repr(work.scaled(1.0)) != repr(work)
        assert clone.random_patterns[0] is not work.random_patterns[0]


@settings(max_examples=50, deadline=None)
@given(
    instructions=st.floats(min_value=0, max_value=1e9),
    factor=st.floats(min_value=0.0, max_value=16.0),
)
def test_property_scaling_linear_in_instructions(instructions, factor):
    work = WorkProfile()
    work.record_work(instructions=instructions)
    assert work.scaled(factor).instructions == pytest.approx(instructions * factor)
