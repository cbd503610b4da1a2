"""The four profiled OLAP systems and their shared substrates."""

from repro.engines.base import (
    Engine,
    JOIN_SIZES,
    JOIN_SPECS,
    JoinSpec,
    QueryResult,
    SELECTION_SELECTIVITIES,
    line_density,
    projection_columns,
    resolve_selection,
    selection_predicate_masks,
    selection_thresholds,
)
from repro.engines.hashtable import (
    ChainedHashTable,
    ChainStats,
    GroupByHashTable,
    ProbeResult,
    fibonacci_bucket,
    next_power_of_two,
    weak_composite_bucket,
)
from repro.engines.typer import TyperEngine
from repro.engines.tectorwise import TectorwiseEngine
from repro.engines.interpreter import (
    ColumnStoreEngine,
    InterpreterEngine,
    RowStoreEngine,
)

#: The two commercial systems, DBMS R and DBMS C.
COMMERCIAL_ENGINES = (RowStoreEngine, ColumnStoreEngine)
#: The two high-performance OLAP engines (Sections 3-10 focus).
HPE_ENGINES = (TyperEngine, TectorwiseEngine)
#: All four engines in the paper's presentation order.
ALL_ENGINES = (*COMMERCIAL_ENGINES, *HPE_ENGINES)


def engine_by_name(name: str) -> Engine:
    """Instantiate an engine from its display name."""
    for engine_cls in ALL_ENGINES:
        if engine_cls.name == name:
            return engine_cls()
    raise ValueError(
        f"unknown engine {name!r}; expected one of "
        f"{[cls.name for cls in ALL_ENGINES]}"
    )


__all__ = [
    "ALL_ENGINES",
    "ChainStats",
    "ChainedHashTable",
    "COMMERCIAL_ENGINES",
    "ColumnStoreEngine",
    "Engine",
    "GroupByHashTable",
    "HPE_ENGINES",
    "InterpreterEngine",
    "JOIN_SIZES",
    "JOIN_SPECS",
    "JoinSpec",
    "ProbeResult",
    "QueryResult",
    "RowStoreEngine",
    "SELECTION_SELECTIVITIES",
    "TectorwiseEngine",
    "TyperEngine",
    "engine_by_name",
    "fibonacci_bucket",
    "line_density",
    "next_power_of_two",
    "projection_columns",
    "resolve_selection",
    "selection_predicate_masks",
    "selection_thresholds",
    "weak_composite_bucket",
]
