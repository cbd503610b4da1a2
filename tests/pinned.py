"""The pinned files: their digests and their one writer.

Seven JSON files under ``tests/`` record behaviour a refactor must keep
bit for bit.  Each is what one ``collect()`` returns, in the module
:data:`FILES` names, written by :func:`write` in one canonical form;
its check runs the same code and compares.  A pinned file records its
reference commit, so it is written from that commit's source and never
to make a change pass::

    PYTHONPATH=<reference checkout>/src python tests/pinned.py NAME|all

``NAME`` is the file's name without ``pinned_`` and ``.json``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent

#: Name -> (pinned file, the module whose ``collect()`` makes it).
FILES = {
    "profiles": ("engines/pinned_profiles.json", "engines/generate_pinned_profiles.py"),
    "join_profiles": ("engines/pinned_join_profiles.json", "engines/test_morsel_equivalence.py"),
    "compiled_profiles": (
        "compile/pinned_compiled_profiles.json", "compile/generate_pinned_compiled_profiles.py",
    ),
    "twins": ("storage/pinned_twins.json", "storage/generate_pinned_twins.py"),
    "dbcache_entries": ("tpch/pinned_dbcache_entries.json", "tpch/generate_pinned_dbcache.py"),
    "plans": ("sql/pinned_plans.json", "sql/generate_pinned_plans.py"),
    "counters": ("serve/pinned_counters.json", "serve/test_pinned_counters.py"),
}


def sha256(data: bytes | str) -> str:
    """Hex SHA-256 of bytes, or of text as UTF-8."""
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def array_sha256(array) -> str:
    """SHA-256 of an array's dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    return sha256(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())


def json_sha256(value) -> str:
    """SHA-256 of ``value`` as sorted-key JSON: numpy scalars as numbers,
    anything else JSON cannot hold as its ``repr``."""
    return sha256(json.dumps(
        value, sort_keys=True,
        default=lambda item: item.item() if isinstance(item, np.generic) else repr(item),
    ))


def load(name: str):
    """The contents of pinned file ``name``."""
    return json.loads((TESTS / FILES[name][0]).read_text())


def write(name: str) -> None:
    """Write pinned file ``name`` from its module's ``collect()``, on an
    empty execution cache: a file records runs, not cache hits."""
    from repro.core.execcache import EXECUTION_CACHE

    path, module = (TESTS / part for part in FILES[name])
    sys.path[:0] = [str(TESTS), str(module.parent)]
    collect = importlib.import_module(module.stem).collect
    EXECUTION_CACHE.clear()
    path.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(TESTS.parent)}")


if __name__ == "__main__":
    names = sys.argv[1:]
    if len(names) != 1 or names[0] not in {*FILES, "all"}:
        sys.exit(f"usage: python tests/pinned.py {'|'.join(FILES)}|all")
    for name in FILES if names[0] == "all" else names:
        write(name)
