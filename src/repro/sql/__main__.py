"""Offline tour of the SQL frontend: ``python -m repro.sql``.

Without arguments, parses every documented workload (TPC-H Q1/Q6/Q9/
Q18, the join sizes, the group-by and the projection degrees), prints
the statement's shape and binding, the logical plan and the engine
path it lowers to.  With ``--sql`` it compiles an arbitrary statement;
with ``--execute`` it also runs the statement on a tiny generated
database across all four engines.

Everything here works offline -- no service, no network.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.sql import plan as ir
from repro.sql.api import compile_sql
from repro.sql.errors import SqlError
from repro.sql.tokens import normalize_sql


def _documented_workloads() -> list[tuple[str, str]]:
    from repro.tpch.sql import (
        EXTENDED_TPCH_SQL,
        GROUPBY_SQL,
        JOIN_SQL,
        TPCH_SQL,
        projection_sql,
    )

    entries = [(f"TPC-H {qid}", sql) for qid, sql in TPCH_SQL.items()]
    entries += [
        (f"TPC-H {qid} (compiled)", sql)
        for qid, sql in EXTENDED_TPCH_SQL.items()
    ]
    entries += [(f"join {size}", sql) for size, sql in JOIN_SQL.items()]
    entries.append(("groupby", GROUPBY_SQL))
    entries += [
        (f"projection degree {degree}", projection_sql(degree))
        for degree in (1, 4)
    ]
    return entries


def _show(title: str, sql: str, execute: bool, scale_factor: float) -> int:
    print(f"== {title} " + "=" * max(1, 66 - len(title)))
    try:
        statement = normalize_sql(sql)
        print(f"shape:   {statement.shape}")
        print(f"binding: {statement.binding}")
        bound = compile_sql(sql)
    except SqlError as exc:
        print(f"SqlError: {exc}", file=sys.stderr)
        return 1
    print()
    print(ir.to_text(bound.plan))
    print(f"-> {bound}")
    _show_route(bound)
    if execute:
        _execute(sql, scale_factor)
    print()
    return 0


def _show_route(bound) -> None:
    """One line on how the binding runs: hand-wired template or
    compiled kernel program (with the program's shape)."""
    if bound.method != "run_compiled":
        print(f"   route: hand-wired template ({bound.method})")
        return
    from repro.compile.program import compiled_program

    shape = compiled_program(bound.plan).describe()
    joins = ", ".join(join["table"] for join in shape["joins"]) or "none"
    groups = ", ".join(shape["group_by"]) or "global"
    print(
        f"   route: compiled kernel program -- drives {shape['driving']}, "
        f"{shape['filters']} filter(s), joins: {joins}, groups: {groups}"
    )


def _execute(sql: str, scale_factor: float) -> None:
    from repro.engines import ALL_ENGINES
    from repro.tpch import generate_database

    db = generate_database(scale_factor=scale_factor, seed=7)
    bound = compile_sql(sql)
    _show_chooser(db, bound)
    for engine_cls in ALL_ENGINES:
        result = bound.execute(engine_cls(), db)
        print(f"   {engine_cls.name:<12} value={result.value} tuples={result.tuples}")


def _show_chooser(db, bound) -> None:
    """The engine chooser's model-predicted cycles per route."""
    from repro.compile.chooser import ChooserError, choose

    try:
        decision = choose(db, bound)
    except ChooserError as exc:
        print(f"   chooser: declined ({exc})")
        return
    cycles = ", ".join(
        f"{name}={value:.3g}"
        for name, value in sorted(decision["predicted_cycles"].items())
    )
    print(f"   chooser: predicts {decision['chosen']} fastest ({cycles} cycles)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sql",
        description="Parse, plan and lower SQL of the documented dialect.",
    )
    parser.add_argument("--sql", help="statement to compile (default: tour all documented workloads)")
    parser.add_argument(
        "--execute", action="store_true",
        help="also run on a generated database across all four engines",
    )
    parser.add_argument(
        "--scale-factor", type=float, default=0.002,
        help="scale factor for --execute (default 0.002)",
    )
    args = parser.parse_args(argv)

    statements = (
        [("statement", args.sql)] if args.sql is not None else _documented_workloads()
    )
    status = 0
    try:
        for title, sql in statements:
            status |= _show(title, sql, args.execute, args.scale_factor)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop quietly, and point
        # stdout at devnull so the interpreter's exit flush fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
