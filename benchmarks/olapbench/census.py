"""Process, shared-memory and socket accounting read from ``/proc``.

Two users: the workload child adds up the CPU time of its live worker
processes (``RUSAGE_CHILDREN`` only counts children that were already
waited for), and the parent takes a census before and after every child
so that a leaked shm segment, process or listening socket fails the run
with the offender named.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

_TICKS = os.sysconf("SC_CLK_TCK")
_LISTEN = "0A"
#: How long a child's helpers get to exit after it before they count as leaked.
GRACE_SECONDS = 3.0


def process_table() -> dict:
    """pid -> (ppid, session id, cpu seconds, command name) of every
    process that is not a zombie (a zombie holds nothing but its pid)."""
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
        if fields[0] == "Z":
            continue
        table[int(entry)] = (
            int(fields[1]),
            int(fields[3]),
            (int(fields[11]) + int(fields[12])) / _TICKS,
            head.partition("(")[2],
        )
    return table


def descendant_cpu_seconds(root_pid: int) -> float:
    """User+system CPU seconds of every live descendant of ``root_pid``."""
    table = process_table()
    total = 0.0
    frontier = [root_pid]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, _, cpu, _) in table.items():
            if ppid == parent:
                total += cpu
                frontier.append(pid)
    return total


def _listening_sockets() -> set:
    found = set()
    for name in ("tcp", "tcp6"):
        try:
            lines = Path("/proc/net", name).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if fields[3] == _LISTEN:
                found.add(f"{name}:{fields[1]}")
    return found


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


@dataclass
class Census:
    """What existed before a child started."""

    shm: set
    sockets: set

    @classmethod
    def take(cls) -> "Census":
        return cls(_shm_segments(), _listening_sockets())

    def leaks_after(self, session_id: int) -> list[str]:
        """Everything the ended child (leader of session ``session_id``)
        left behind, named.  Survivors of its session are killed so the
        benchmark itself never leaks; the run still fails."""
        # multiprocessing's resource tracker exits on its own once it
        # sees the child's pipe close; give it a moment before counting.
        deadline = time.monotonic() + GRACE_SECONDS
        while True:
            survivors = {
                pid: name
                for pid, (_, session, _, name) in process_table().items()
                if session == session_id
            }
            if not survivors or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        leaks = []
        for pid, name in survivors.items():
            leaks.append(f"process {pid} ({name})")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        leaks += [f"shm segment /dev/shm/{name}" for name in sorted(_shm_segments() - self.shm)]
        leaks += [f"listening socket {name}" for name in sorted(_listening_sockets() - self.sockets)]
        return leaks
