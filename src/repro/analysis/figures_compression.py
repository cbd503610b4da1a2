"""Section 8 extension: what compressed column widths buy each engine.

Section 8 concludes the engines saturate neither bandwidth nor cores
because scans stream full-width values.  The encoded storage tier
(:mod:`repro.storage.encoding`) shrinks the streamed bytes by 2-8x per
column while keeping results and recorded work bit-identical; this
figure quantifies the gap the paper leaves open: raw vs encoded
bytes/tuple on the Q1/Q6 scan streams and the modeled cycle change
when the cycle model is fed the same work profile with the sequential
stream rewritten to the encoded widths
(``WorkProfile.with_sequential_scaled``).

The row store is the control: its slotted pages carry full tuples, so
column encodings do not shrink what it streams -- exactly the DSM/NSM
contrast the compression literature predicts.
"""

from __future__ import annotations

from repro.analysis.result import FigureResult
from repro.engines import ALL_ENGINES
from repro.engines.morsel import bytes_for_rows, encoded_bytes_for_rows
from repro.hardware.memory import MemorySystem
from repro.tpch.schema import LINEITEM_SCANS

_Q1 = LINEITEM_SCANS["run_q1"]
_Q6 = LINEITEM_SCANS["run_q6"]

#: The columns each engine streams *sequentially* for Q1/Q6 (gathered
#: columns are sparse scans and keep their decoded widths): Typer
#: gathers Q6's price, Tectorwise every Q6 column after the first.
_SEQ_COLUMNS = {
    ("Typer", "Q1"): _Q1.columns,
    ("Typer", "Q6"): _Q6.predicate_columns,
    ("Tectorwise", "Q1"): _Q1.columns,
    ("Tectorwise", "Q6"): _Q6.predicate_columns[:1],
    ("DBMS C", "Q1"): _Q1.columns,
    ("DBMS C", "Q6"): _Q6.columns,
}


def sec8_compression(db, profiler) -> FigureResult:
    """Raw vs encoded scan bytes/tuple and modeled cycles per engine."""
    figure = FigureResult(
        "sec8-compression",
        "Compressed column widths: bytes/tuple and modeled cycles",
        (
            "engine", "workload", "raw_bytes_per_tuple",
            "encoded_bytes_per_tuple", "byte_reduction",
            "cycles_raw", "cycles_encoded", "modeled_speedup",
        ),
    )
    lineitem = db.table("lineitem")
    n = lineitem.n_rows
    memory = MemorySystem(profiler.spec)

    for engine_cls in ALL_ENGINES:
        engine = engine_cls()
        for workload, runner in (("Q1", engine.run_q1), ("Q6", engine.run_q6)):
            result = runner(db)
            columns = _SEQ_COLUMNS.get((engine.name, workload))
            if columns is None:
                # NSM pages stream full tuples whatever the columns'
                # encodings: no reduction, by construction.
                raw_bpt = encoded_bpt = (
                    db.row_table("lineitem").tuple_bytes if n else 0.0
                )
                ratio = 1.0
            else:
                # Measures whose morph decision chose decode-then-sum
                # stream at logical width; code-domain aggregates and
                # predicate/key columns stream at code width.
                decoded_cols = {
                    measure["column"]
                    for measure in result.details.get("encoded_agg", {}).get(
                        "measures", []
                    )
                    if measure["mode"] == "decoded" and measure["column"]
                }
                raw_bytes = bytes_for_rows(lineitem, columns, 0, n)
                encoded_bytes = encoded_bytes_for_rows(
                    lineitem, columns, 0, n, decoded=decoded_cols
                )
                raw_bpt = raw_bytes / n if n else 0.0
                encoded_bpt = encoded_bytes / n if n else 0.0
                ratio = encoded_bytes / raw_bytes if raw_bytes else 1.0
            cycles_raw = profiler.model.breakdown(
                result.work, profiler.context
            ).total
            cycles_encoded = profiler.model.breakdown(
                result.work.with_sequential_scaled(ratio), profiler.context
            ).total
            figure.add_row(
                engine=engine.name,
                workload=workload,
                raw_bytes_per_tuple=round(raw_bpt, 2),
                encoded_bytes_per_tuple=round(encoded_bpt, 2),
                byte_reduction=round(raw_bpt / encoded_bpt, 2)
                if encoded_bpt
                else 1.0,
                cycles_raw=round(cycles_raw),
                cycles_encoded=round(cycles_encoded),
                modeled_speedup=round(cycles_raw / cycles_encoded, 3)
                if cycles_encoded
                else 1.0,
            )

    encoded_columns = [
        name
        for name in lineitem.column_names
        if lineitem.encoding(name) is not None
    ]
    if encoded_columns:
        summary = ", ".join(
            f"{name}={lineitem.encoding(name).codec_kind}"
            f"({lineitem.column(name).itemsize}->"
            f"{lineitem.encoding(name).scan_itemsize:g}B)"
            for name in encoded_columns
        )
        figure.note(f"lineitem encodings: {summary}")
        figure.note(
            "lineitem stored bytes: "
            f"{lineitem.nbytes / 1e6:.1f} MB raw -> "
            f"{lineitem.encoded_nbytes / 1e6:.1f} MB encoded "
            f"({lineitem.nbytes / lineitem.encoded_nbytes:.1f}x)"
        )
        q6_columns = _SEQ_COLUMNS[("DBMS C", "Q6")]
        figure.note(
            "bandwidth-bound upper bound (Q6 scan stream, 1 core): "
            f"{memory.compression_speedup(bytes_for_rows(lineitem, q6_columns, 0, n), encoded_bytes_for_rows(lineitem, q6_columns, 0, n)):.2f}x"
        )
    else:
        figure.note(
            "database holds no encoded columns: encoded widths equal raw widths"
        )
    figure.note(
        "recorded work profiles always account logical (decoded) widths; "
        "the encoded-width cycles come from rewriting the sequential "
        "stream via WorkProfile.with_sequential_scaled, never from "
        "changing execution"
    )
    return figure
