"""The session leak census counts the sockets this process tree holds."""

from __future__ import annotations

import os
import socket
import subprocess
import sys

from leaks import listening_sockets, session_pids

LISTENER = (
    "import socket, sys\n"
    "s = socket.socket(); s.bind(('127.0.0.1', 0)); s.listen()\n"
    "print(s.getsockname()[1], flush=True); sys.stdin.read()\n"
)


def _name(port: int) -> str:
    return f"tcp:0100007F:{port:04X}"  # 127.0.0.1, as /proc/net/tcp writes it


def test_a_listener_held_in_process_is_reported():
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        assert _name(listener.getsockname()[1]) in listening_sockets(session_pids())


def test_a_listener_no_given_process_holds_is_ignored():
    child = subprocess.Popen(
        [sys.executable, "-c", LISTENER],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        name = _name(int(child.stdout.readline()))
        assert name in listening_sockets(session_pids())  # a descendant holds it
        assert name not in listening_sockets({os.getpid()})  # this process does not
    finally:
        child.communicate(timeout=30)
