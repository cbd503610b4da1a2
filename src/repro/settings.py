"""Process settings: the one module that reads the environment.

Every ``REPRO_*`` name lives in :data:`SETTINGS` with its default,
whether it is *keyed* (it changes what an engine run records, so the
execution cache must not serve an entry across a flip) and one doc
line.  The environment stays the store -- spawned pool workers and
shard nodes inherit it, tests and the benchmark harness flip it
mid-process -- so every accessor reads ``os.environ`` at call time and
nothing here is cached.

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
    keyed: bool
    doc: str


#: name -> row.  Switches have a bool default; the rest are values.
SETTINGS: dict[str, Setting] = {
    "encoding": Setting(
        "REPRO_ENCODING", True, True,
        "encode columns (dictionary / frame-of-reference / RLE) at load time"),
    "encoded_agg": Setting(
        "REPRO_ENCODED_AGG", True, True,
        "aggregate and group in the code domain of encoded columns"),
    "pruning": Setting(
        "REPRO_PRUNING", True, True,
        "skip morsels whose zone maps rule the predicate out"),
    "rollups": Setting(
        "REPRO_ROLLUPS", True, True,
        "answer eligible aggregates from attached rollup tables"),
    "compile": Setting(
        "REPRO_COMPILE", True, True,
        "lower statements no template matches through the plan compiler"),
    "exec_cache": Setting(
        "REPRO_EXEC_CACHE", True, False,
        "memoize engine runs in-process"),
    "disk_cache": Setting(
        "REPRO_DISK_CACHE", True, False,
        "persist generated TPC-H databases under the cache directory"),
    "reference_sim": Setting(
        "REPRO_REFERENCE_SIM", False, False,
        "per-event reference simulators instead of the batch kernels"),
    "cache_dir": Setting(
        "REPRO_CACHE_DIR", "~/.cache/repro", False,
        "root of the on-disk TPC-H cache"),
    "scale_factor": Setting(
        "REPRO_SF", "0.3", False,
        "default scale factor of the analysis registry"),
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


def result_key() -> tuple[bool, ...]:
    """The value of every keyed switch, in table order: the part of the
    execution-cache key that keeps a run recorded under one setting
    from being served under another."""
    return tuple(enabled(name) for name, row in SETTINGS.items() if row.keyed)


def cache_dir() -> Path:
    return Path(_raw("cache_dir") or SETTINGS["cache_dir"].default).expanduser()


def scale_factor() -> float:
    return float(_raw("scale_factor") or SETTINGS["scale_factor"].default)
