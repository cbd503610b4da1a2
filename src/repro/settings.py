"""Process settings: the one module that reads the environment.

Every ``REPRO_*`` name lives in :data:`SETTINGS` with its default and
one doc line.  The environment stays the store -- spawned pool workers
and shard nodes inherit it, tests and the benchmark harness flip it
mid-process -- so every accessor reads ``os.environ`` at call time and
nothing here is cached.

No setting changes what an engine run computes or records, so
neither the execution cache nor the plan cache keys on any of them.

This module imports nothing from ``repro``: any layer may import it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Setting:
    env: str
    default: bool | str
    doc: str


#: name -> row.  Switches have a bool default; the rest are values.
SETTINGS: dict[str, Setting] = {
    "exec_cache": Setting(
        "REPRO_EXEC_CACHE", True,
        "memoize engine runs and TPC-H reference answers in-process"),
    "disk_cache": Setting(
        "REPRO_DISK_CACHE", True,
        "persist generated TPC-H databases under the cache directory"),
    "cache_dir": Setting(
        "REPRO_CACHE_DIR", "~/.cache/repro", "root of the on-disk TPC-H cache"),
    "scale_factor": Setting(
        "REPRO_SF", "0.3", "default scale factor of the analysis registry"),
}

_OFF_WORDS = frozenset({"0", "false", "no", "off"})


def _raw(name: str) -> str:
    return os.environ.get(SETTINGS[name].env, "").strip()


def enabled(name: str) -> bool:
    """The switch ``name`` now: empty or unset is its default, an
    off-word is False, anything else True."""
    raw = _raw(name)
    if not raw:
        return SETTINGS[name].default
    return raw.lower() not in _OFF_WORDS


def cache_dir() -> Path:
    return Path(_raw("cache_dir") or SETTINGS["cache_dir"].default).expanduser()


def scale_factor() -> float:
    return float(_raw("scale_factor") or SETTINGS["scale_factor"].default)
