"""Cluster lifecycle: ordered teardown (sockets -> processes ->
segments), single-owner atexit bookkeeping, and Ctrl-C reclamation --
the shard-cluster mirror of the PR 3 shm lifecycle tests.
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory

import pytest

from repro.shard.cluster import ShardCluster
from repro.storage.shm import export_database


def segment_exists(name: str) -> bool:
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


def port_open(endpoint) -> bool:
    try:
        socket.create_connection(tuple(endpoint), timeout=0.5).close()
    except OSError:
        return False
    return True


class TestAtexitOwnership:
    """Behavioral probes: ``atexit._ncallbacks`` never decrements on
    unregister (CPython nulls the slot), so ownership is asserted by
    what actually happens at interpreter exit."""

    def test_disown_keeps_unlink_working(self, tiny_db):
        shared = export_database(tiny_db)
        shared.disown_atexit()
        shared.unlink()  # still works, still idempotent
        shared.unlink()
        assert not segment_exists(shared.segment_name)

    def test_disown_really_removes_the_unlink_hook(self, tmp_path):
        """Behavioral probe of ``disown_atexit``: a disowned segment with
        no adopting owner reaches interpreter exit still linked, so the
        multiprocessing resource tracker has to clean it up and says so
        on stderr.  The owned (default) exporter's hook unlinks first,
        so its exit is silent.  Either way the segment is gone after."""
        script = tmp_path / "exporter.py"
        script.write_text(textwrap.dedent("""
            import sys
            from repro.tpch import generate_database
            from repro.storage.shm import export_database

            if __name__ == "__main__":
                db = generate_database(scale_factor=0.002, seed=7)
                shared = export_database(db)
                if "--disown" in sys.argv:
                    shared.disown_atexit()
                print(shared.segment_name, flush=True)
        """))

        def run(*extra):
            completed = subprocess.run(
                [sys.executable, str(script), *extra],
                capture_output=True, text=True, timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            return completed.stdout.split()[-1], completed.stderr

        name, stderr = run()
        assert "leaked shared_memory" not in stderr, stderr
        assert not segment_exists(name)

        name, stderr = run("--disown")
        assert "leaked shared_memory" in stderr, (
            "disowned segment was unlinked by the exporter's own hook: "
            "disown_atexit did not unregister it"
        )
        deadline = time.monotonic() + 10.0
        while segment_exists(name) and time.monotonic() < deadline:
            time.sleep(0.05)  # the tracker reclaims it just after exit
        assert not segment_exists(name)

    def test_cluster_hook_reclaims_everything_on_normal_exit(self, tmp_path):
        """Exit WITHOUT closing the cluster: the single adopted hook must
        tear down sockets -> processes -> segments, with a clean stderr
        (the pre-fix double cleanup raced per-segment unlink hooks
        against live node processes at interpreter exit)."""
        script = tmp_path / "forgetful_owner.py"
        script.write_text(textwrap.dedent("""
            from repro.tpch import generate_database
            from repro.shard.cluster import ShardCluster

            if __name__ == "__main__":
                db = generate_database(scale_factor=0.002, seed=7)
                cluster = ShardCluster(db, n_shards=2, spawn="process")
                print(" ".join(cluster.segment_names()), flush=True)
                # no close(): the atexit hook owns the teardown
        """))
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=180,
        )
        assert completed.returncode == 0, completed.stderr
        names = completed.stdout.split()
        assert len(names) == 2
        deadline = time.monotonic() + 15.0
        while any(segment_exists(name) for name in names) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(segment_exists(name) for name in names)
        assert "Traceback" not in completed.stderr, completed.stderr


class TestOrderedClose:
    def test_close_unlinks_every_segment(self, tiny_db):
        cluster = ShardCluster(tiny_db, n_shards=2, spawn="process")
        names = cluster.segment_names()
        assert len(names) == 2
        assert all(segment_exists(name) for name in names)
        endpoints = [replica for shard in cluster.endpoints for replica in shard]
        cluster.close()
        assert not any(segment_exists(name) for name in names)
        assert not any(port_open(endpoint) for endpoint in endpoints)
        for process in cluster._processes:
            assert process.exitcode is not None

    def test_close_is_idempotent(self, tiny_db):
        cluster = ShardCluster(tiny_db, n_shards=2, spawn="thread")
        cluster.close()
        cluster.close()

    def test_context_manager_closes_on_exception(self, tiny_db):
        with pytest.raises(RuntimeError, match="boom"):
            with ShardCluster(tiny_db, n_shards=2, spawn="process") as cluster:
                names = cluster.segment_names()
                raise RuntimeError("boom")
        assert not any(segment_exists(name) for name in names)

    @pytest.mark.parametrize("spawn", ["thread", "process"])
    def test_faults_leave_environ_untouched(self, tiny_db, spawn):
        """Fault gating is a node config field, never process state."""
        import os

        before = dict(os.environ)
        with ShardCluster(tiny_db, n_shards=1, spawn=spawn, faults=True):
            assert dict(os.environ) == before
        assert dict(os.environ) == before


class TestSigint:
    def test_sigint_unlinks_every_shard_segment(self, tmp_path):
        """Ctrl-C in the coordinating process must reclaim every shard's
        segment through the cluster's single ordered atexit hook."""
        script = tmp_path / "cluster_owner.py"
        script.write_text(textwrap.dedent("""
            import time
            from repro.tpch import generate_database
            from repro.shard.cluster import ShardCluster

            if __name__ == "__main__":
                db = generate_database(scale_factor=0.002, seed=7)
                cluster = ShardCluster(db, n_shards=2, spawn="process")
                print(" ".join(cluster.segment_names()), flush=True)
                time.sleep(60)  # parked until the parent interrupts us
        """))
        process = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            names = process.stdout.readline().split()
            assert names, "cluster never reported its segments"
            assert all(segment_exists(name) for name in names)
            process.send_signal(signal.SIGINT)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        deadline = time.monotonic() + 15.0
        while any(segment_exists(name) for name in names) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(segment_exists(name) for name in names)
