"""``python -m repro.serve``: the entry point a user starts."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.serve.__main__ as cli
from repro.serve import QueryClient
from repro.tpch.sql import GROUPBY_SQL, JOIN_SQL, TPCH_SQL, projection_sql

#: Seconds the server gets to generate its database and listen, and
#: then to exit after ``shutdown``.
READY_BOUND_S = 60.0
EXIT_BOUND_S = 30.0

#: One statement on each engine.
ENGINE_STATEMENTS = {
    "DBMS R": projection_sql(1),
    "DBMS C": GROUPBY_SQL,
    "Typer": JOIN_SQL["small"],
    "Tectorwise": TPCH_SQL["Q6"],
}


def _wait_ready(process: subprocess.Popen, ready: Path, log: Path) -> tuple[str, int]:
    deadline = time.monotonic() + READY_BOUND_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            pytest.fail(f"server exited {process.returncode}: {log.read_text()}")
        text = ready.read_text() if ready.exists() else ""
        if text.endswith("\n"):
            host, port = text.split()
            return host, int(port)
        time.sleep(0.05)
    pytest.fail(f"server not listening after {READY_BOUND_S} s: {log.read_text()}")


def test_serves_all_engines_over_tcp_and_exits_on_shutdown(tmp_path):
    ready, log = tmp_path / "ready", tmp_path / "server.log"
    with open(log, "wb") as out:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--ready-file", str(ready), "--scale-factor", "0.002"],
            stdout=out, stderr=subprocess.STDOUT,
        )
    try:
        host, port = _wait_ready(process, ready, log)
        with QueryClient(host, port, timeout=READY_BOUND_S) as client:
            assert client.ping() == {"status": "ok", "pong": True}
            for engine, sql in ENGINE_STATEMENTS.items():
                response = client.query(sql, engine=engine)
                assert response["status"] == "ok", response
                assert response["engine"] == engine
            stats = client.stats()["stats"]
            assert stats["submitted"] == stats["ok"] == len(ENGINE_STATEMENTS)
            assert client.request({"op": "shutdown"}) == {
                "status": "ok", "stopping": True,
            }
        assert process.wait(timeout=EXIT_BOUND_S) == 0, log.read_text()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--queue-depth", "0"], "must be"),
        (["--workers", "0"], "must be"),
        (["--timeout", "0"], "must be"),
        (["--process-workers", "0"], "must be"),
        (["--engine", "Bogus"], "unknown engine 'Bogus'"),
        (["--scale-factor", "0"], "scale_factor must be positive"),
        (["--scale-factor", "-0.5"], "scale_factor must be positive"),
        (["--scale-factor", "inf"], "scale_factor must be positive and finite"),
    ],
    ids=[
        "queue-depth", "workers", "timeout", "process-workers",
        "engine", "scale-factor-zero", "scale-factor-negative", "scale-factor-inf",
    ],
)
def test_settings_that_disable_the_service_exit_2_before_serving(
    flags, message, monkeypatch, capsys
):
    """The config's ``ValueError`` is a usage error: exit 2, with no
    service started and no socket bound."""

    def refuse(*args, **kwargs):
        raise AssertionError("started serving on a rejected config")

    monkeypatch.setattr(cli, "QueryService", refuse)
    monkeypatch.setattr(cli, "QueryServer", refuse)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--port", "0", *flags])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
