"""Containers for regenerated paper tables and figures."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import ProfileReport
from repro.hardware.tmam import COMPONENTS, STALL_COMPONENTS


@dataclass
class FigureResult:
    """One regenerated table/figure: rows of named values plus notes.

    ``rows`` is a list of flat dicts sharing the ``columns`` keys, in
    the order the paper's figure presents its bars/series.
    """

    figure_id: str
    title: str
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        row = {column: values.get(column) for column in self.columns}
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def row_for(self, **match) -> dict:
        """First row matching all given key/value pairs."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in match.items()):
                return row
        raise KeyError(f"no row matching {match} in {self.figure_id}")

    def to_text(self, float_format: str = "{:.3f}") -> str:
        """Render as a fixed-width text table."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        header = list(self.columns)
        body = [[fmt(row.get(column)) for column in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.figure_id}: {self.title} =="]
        lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


CYCLE_SHARE_COLUMNS = tuple(f"share_{name}" for name in COMPONENTS)
STALL_SHARE_COLUMNS = tuple(f"stall_share_{name}" for name in STALL_COMPONENTS)
TIME_COLUMNS = tuple(f"{name}_ms" for name in COMPONENTS)


def cycle_share_row(report: ProfileReport, **extra) -> dict:
    """Figure row with the CPU-cycles breakdown shares (Fig 1/3/...)."""
    row = dict(extra)
    row["engine"] = report.engine
    for name, share in report.cycle_shares().items():
        row[f"share_{name}"] = share
    row["stall_ratio"] = report.stall_ratio
    return row


def stall_share_row(report: ProfileReport, **extra) -> dict:
    """Figure row with the stall-cycles breakdown shares (Fig 2/4/...)."""
    row = dict(extra)
    row["engine"] = report.engine
    for name, share in report.stall_shares().items():
        row[f"stall_share_{name}"] = share
    row["stall_ratio"] = report.stall_ratio
    return row


#: The two breakdown views of every workload (Section 2): the row
#: builder and the share columns of each.
_BREAKDOWNS = {
    "cycles": (cycle_share_row, CYCLE_SHARE_COLUMNS),
    "stalls": (stall_share_row, STALL_SHARE_COLUMNS),
}


def breakdown_figure(
    figure_id: str,
    title: str,
    view: str,
    argument: str,
    reports: dict,
    *notes: str,
    bandwidth: bool = False,
) -> FigureResult:
    """A CPU-cycles (``view="cycles"``) or stall-cycles (``"stalls"``)
    breakdown figure: one row per engine and ``argument`` value of
    ``reports`` (``{engine: {value: report}}``, as a sweep returns it),
    in sweep order.  ``bandwidth`` adds each run's ``bandwidth_gbps``."""
    row_for, shares = _BREAKDOWNS[view]
    extra = ("bandwidth_gbps",) if bandwidth else ()
    figure = FigureResult(
        figure_id, title, ("engine", argument, "stall_ratio", *extra, *shares)
    )
    for per_argument in reports.values():
        for value, report in per_argument.items():
            row = row_for(report, **{argument: value})
            if bandwidth:
                row["bandwidth_gbps"] = report.bandwidth.gbps
            figure.rows.append(row)
    for note in notes:
        figure.note(note)
    return figure


def time_breakdown_row(report: ProfileReport, **extra) -> dict:
    """Figure row with per-component response time in ms (Fig 17-20, 26)."""
    row = dict(extra)
    row["engine"] = report.engine
    for name, ms in report.time_breakdown_ms().items():
        row[f"{name}_ms"] = ms
    row["response_ms"] = report.response_time_ms
    return row
