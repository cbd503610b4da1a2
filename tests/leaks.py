"""What a test session may leave behind, read from ``/proc``.

Listening sockets are counted only where this session holds them, so a
second test run on the same host neither adds nor hides one.
"""

from __future__ import annotations

import os
from pathlib import Path


def processes() -> dict:
    """pid -> (parent pid, state, command name) of every process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        # The command name may hold spaces and parentheses; the fields
        # after the last ')' are fixed.
        head, _, tail = stat.rpartition(")")
        fields = tail.split()
        table[int(entry)] = (int(fields[1]), fields[0], head.partition("(")[2])
    return table


def children() -> dict:
    """pid -> command name of every live (non-zombie) child of this
    process."""
    return {
        pid: name for pid, (parent, state, name) in processes().items()
        if parent == os.getpid() and state != "Z"
    }


def session_pids() -> set:
    """This process and its live descendants."""
    table = processes()
    pids, frontier = set(), {os.getpid()}
    while frontier:
        pids |= frontier
        frontier = {
            pid for pid, (parent, state, _) in table.items()
            if parent in frontier and state != "Z"
        } - pids
    return pids


def _socket_inodes(pids) -> set:
    inodes = set()
    for pid in pids:
        try:
            fds = list(Path("/proc", str(pid), "fd").iterdir())
        except OSError:
            continue  # exited, or not ours to read
        for fd in fds:
            try:
                target = os.readlink(fd)
            except OSError:
                continue
            if target.startswith("socket:["):
                inodes.add(target[len("socket:["):-1])
    return inodes


def listening_sockets(pids) -> set:
    """``tcp:<hex address>:<hex port>`` of every listening TCP socket
    that one of ``pids`` holds open."""
    held = _socket_inodes(pids)
    found = set()
    for name in ("tcp", "tcp6"):
        try:
            lines = Path("/proc/net", name).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if fields[3] == "0A" and fields[9] in held:  # TCP_LISTEN, inode
                found.add(f"{name}:{fields[1]}")
    return found


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
