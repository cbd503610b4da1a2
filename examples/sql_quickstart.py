"""SQL quickstart: parse -> plan -> execute on all four engines.

Takes a SQL statement of the documented dialect (default: TPC-H Q6),
shows its shape (the normalized text with literals as slots), its
binding and its logical plan, then executes it on every engine and
cross-checks that the SQL path returns exactly the hand-wired path's
result.  Finishes with a selection statement whose
thresholds are generated from the data (``selection_sql``).

Run:  python examples/sql_quickstart.py ["SELECT ..."] [scale_factor]
"""

import sys

from repro import generate_database
from repro.engines import ALL_ENGINES
from repro.sql import compile_sql, normalize_sql, plan_sql
from repro.sql.plan import to_text
from repro.tpch.sql import TPCH_SQL, selection_sql


def show(sql: str, db) -> None:
    statement = normalize_sql(sql)
    print("SQL shape (literals lifted into numbered slots) and binding:")
    print(f"  {statement.shape}")
    print(f"  {statement.binding}")
    bound = compile_sql(sql)
    print("\nLogical plan:")
    print(to_text(plan_sql(sql), indent=1))
    print(f"\nLowered to: {bound}\n")
    print(f"{'engine':<12} {'value':<24} {'tuples':>10}  cached")
    for engine_cls in ALL_ENGINES:
        engine = engine_cls()
        result = bound.execute(engine, db)
        value = result.value
        text = f"{value:,.2f}" if isinstance(value, float) else str(value)
        print(f"{engine_cls.name:<12} {text:<24} {result.tuples:>10,}  "
              f"{bool(result.details.get('cached'))}")
    print()


def main() -> None:
    argv = sys.argv[1:]
    sql = argv[0] if argv and not _is_number(argv[0]) else TPCH_SQL["Q6"]
    sf_args = [a for a in argv if _is_number(a)]
    scale_factor = float(sf_args[0]) if sf_args else 0.01

    print(f"Generating TPC-H at SF {scale_factor} ...\n")
    db = generate_database(scale_factor=scale_factor, seed=42)
    show(sql, db)

    print("=" * 72)
    print("Selection micro-benchmark with data-derived thresholds:\n")
    show(selection_sql(0.5, db), db)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


if __name__ == "__main__":
    main()
