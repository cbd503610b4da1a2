"""The pinned engine matrix: every engine x workload x argument cell.

``pinned_profiles.json`` holds, per engine and cell, the label,
``repr(value)``, ``tuples``, the sorted ``details`` keys and a SHA-256
of the canonical JSON of the total and of every per-operator
:class:`~repro.core.workprofile.WorkProfile` at SF 0.01, seed 7.
``TestPinnedProfiles`` (``test_morsel_equivalence.py``) compares the
single-shot run and a ragged tiling of every cell against it.

The values, tuples and digests were recorded from ``0b34c2a``, the
commit before the engines' data passes were unified; the ``details``
key lists (checked as a floor) from ``b7cab8f``, which reports more
keys.  ``python tests/pinned.py profiles`` writes the file
(``tests/pinned.py`` says from which source).

``pinned_join_profiles.json`` keeps two of these cells field by field,
to localise a break the digests only detect.
"""

from __future__ import annotations

import dataclasses

from pinned import json_sha256

from repro.engines import ALL_ENGINES
from repro.engines.base import selection_thresholds
from repro.tpch import generate_database

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


def summarize(result) -> dict:
    """The pinned fields of one finished :class:`QueryResult`."""
    return {
        "label": result.workload,
        "value": repr(result.value),
        "tuples": int(result.tuples),
        "details": sorted(key for key in result.details if key != "cached"),
        "work": json_sha256(dataclasses.asdict(result.work)),
        "operators": {
            name: json_sha256(dataclasses.asdict(profile))
            for name, profile in result.operator_work.items()
        },
    }


def collect() -> dict:
    db = generate_database(scale_factor=SCALE_FACTOR, seed=SEED)
    return {
        engine.name: {
            cell: summarize(getattr(engine, method)(db, **kwargs))
            for cell, method, kwargs in cells_for(engine, db)
        }
        for engine in (engine_cls() for engine_cls in ALL_ENGINES)
    }
