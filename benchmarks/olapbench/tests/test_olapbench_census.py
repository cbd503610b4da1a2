import os
import socket
import subprocess
import sys
from multiprocessing import shared_memory

import census


def test_census_names_and_kills_a_process_that_outlives_its_session_leader(monkeypatch):
    monkeypatch.setattr(census, "GRACE_SECONDS", 0.3)
    before = census.Census.take()
    leader = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, sys;"
         "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(120)'])"],
        start_new_session=True,
    )
    leader.wait()
    leaks = before.leaks_after(leader.pid)
    assert len(leaks) == 1 and leaks[0].startswith("process ")
    assert before.leaks_after(leader.pid) == [], "the survivor was killed"


def test_census_names_a_leaked_shm_segment_and_a_listening_socket(monkeypatch):
    monkeypatch.setattr(census, "GRACE_SECONDS", 0.0)
    before = census.Census.take()
    segment = shared_memory.SharedMemory(create=True, size=4096)
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        leaks = before.leaks_after(session_id=-1)
        assert f"shm segment /dev/shm/{segment.name.lstrip('/')}" in leaks
        assert sum(leak.startswith("listening socket tcp:") for leak in leaks) == 1
    finally:
        listener.close()
        segment.close()
        segment.unlink()
    assert before.leaks_after(session_id=-1) == []


def test_descendant_cpu_counts_a_live_child():
    child = subprocess.Popen(
        [sys.executable, "-c", "import time\nt=time.time()\nwhile time.time()-t<0.4: pass\ntime.sleep(30)"]
    )
    try:
        import time

        time.sleep(0.8)
        assert census.descendant_cpu_seconds(os.getpid()) >= 0.2
    finally:
        child.kill()
        child.wait()
