"""The pinned engine matrix: every engine x workload x argument cell.

``pinned_profiles.json`` holds, per engine and cell, the label,
``repr(value)``, ``tuples``, the sorted ``details`` keys and a SHA-256
of the canonical JSON of the total and of every per-operator
:class:`~repro.core.workprofile.WorkProfile` at SF 0.01, seed 7.
``TestPinnedProfiles`` (``test_morsel_equivalence.py``) compares the
single-shot run and a ragged tiling of every cell against it.

The file records behaviour, so it is regenerated only from a commit
whose numbers are the reference (it was written from ``0b34c2a``, the
commit before the engines' data passes were unified)::

    PYTHONPATH=<that checkout>/src python tests/engines/generate_pinned_profiles.py

``pinned_join_profiles.json`` keeps two of these cells field by field,
to localise a break the digests only detect.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.engines import ALL_ENGINES
from repro.engines.base import selection_thresholds
from repro.tpch import generate_database

PINNED_PROFILES = Path(__file__).with_name("pinned_profiles.json")
SCALE_FACTOR, SEED = 0.01, 7

#: Cells every engine runs; ``simd`` twins are added where supported.
_SCALAR_CELLS = (
    [(f"projection-p{d}", "run_projection", {"degree": d}) for d in (1, 2, 3, 4)]
    + [
        (
            f"selection-{int(s * 100)}" + ("-predicated" if p else ""),
            "run_selection",
            {"selectivity": s, "predicated": p},
        )
        for s in (0.1, 0.5, 0.9)
        for p in (False, True)
    ]
    + [(f"join-{size}", "run_join", {"size": size}) for size in ("small", "medium", "large")]
)
_PLAIN_CELLS = [
    ("groupby", "run_groupby", {}),
    ("Q1", "run_q1", {}),
    ("Q6", "run_q6", {}),
    ("Q6-predicated", "run_q6", {"predicated": True}),
    ("Q9", "run_q9", {}),
    ("Q18", "run_q18", {}),
]


def cells_for(engine, db) -> list[tuple[str, str, dict]]:
    """``(cell id, method, kwargs)`` for one engine on ``db``."""
    cells = list(_SCALAR_CELLS)
    if engine.supports_simd:
        cells += [
            (f"{cell}-simd", method, {**kwargs, "simd": True})
            for cell, method, kwargs in _SCALAR_CELLS
        ]
    # Literal thresholds, the way the SQL frontend passes them.
    literal = tuple(selection_thresholds(db, 0.3).values())
    cells.append(
        ("selection-thresholds", "run_selection", {"selectivity": None, "thresholds": literal})
    )
    return cells + _PLAIN_CELLS


def _digest(profile) -> str:
    canonical = json.dumps(
        dataclasses.asdict(profile), sort_keys=True, default=lambda scalar: scalar.item()
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def summarize(result) -> dict:
    """The pinned fields of one finished :class:`QueryResult`."""
    return {
        "label": result.workload,
        "value": repr(result.value),
        "tuples": int(result.tuples),
        "details": sorted(key for key in result.details if key != "cached"),
        "work": _digest(result.work),
        "operators": {
            name: _digest(profile) for name, profile in result.operator_work.items()
        },
    }


def main() -> None:
    db = generate_database(scale_factor=SCALE_FACTOR, seed=SEED)
    pinned = {}
    for engine_cls in ALL_ENGINES:
        engine = engine_cls()
        pinned[engine.name] = {
            cell: summarize(getattr(engine, method)(db, **kwargs))
            for cell, method, kwargs in cells_for(engine, db)
        }
    PINNED_PROFILES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, pinned.values()))} cells to {PINNED_PROFILES}")


if __name__ == "__main__":
    main()
