"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` holds metric *families* (one name, one type,
fixed label names) of labelled series.  Three operations make it work
across the multi-process executor:

- :meth:`MetricsRegistry.snapshot` -- the whole registry as plain
  picklable data (this is what pool workers send over the existing
  result channel);
- :func:`merge_snapshots` -- exact aggregation of many snapshots
  (counters and histogram buckets add; gauges add too, which is the
  right semantics for the per-worker occupancy gauges we export);
- :func:`render_snapshot` -- Prometheus text exposition (``# HELP`` /
  ``# TYPE`` / ``name{labels} value``), deterministic ordering.

:func:`parse_exposition` is a strict parser for that format; only the
tests use it, as their oracle -- if the exposition ever stops parsing,
they fail.
"""

from __future__ import annotations

import math
import re
import threading

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): sub-millisecond to ten seconds.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


class _Series:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class MetricFamily:
    """One named metric and its labelled series."""

    def __init__(self, registry, name, help_text, kind, labelnames, buckets=None):
        self._registry = registry
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._series: dict[tuple, object] = {}

    # -- series resolution --------------------------------------------
    def labels(self, **labels) -> "_Handle":
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        return _Handle(self, key)

    def _get(self, key: tuple):
        """The series at ``key``, created on first use; the caller
        holds the registry lock."""
        series = self._series.get(key)
        if series is None:
            series = (
                _HistogramSeries(len(self.buckets))
                if self.kind == "histogram"
                else _Series()
            )
            self._series[key] = series
        return series

    # -- unlabelled convenience ---------------------------------------
    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return _Handle(self, ())

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def sync(self, total: float) -> None:
        self._default().sync(total)

    def observe(self, value: float) -> None:
        self._default().observe(value)


class _Handle:
    """One (family, label values) series accessor."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: MetricFamily, key: tuple):
        self._family = family
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if self._family.kind not in ("counter", "gauge"):
            raise TypeError(f"{self._family.name} is a {self._family.kind}")
        if self._family.kind == "counter" and amount < 0:
            raise ValueError("counters only go up")
        with self._family._registry.lock:
            self._family._get(self._key).value += amount

    def dec(self, amount: float = 1.0) -> None:
        if self._family.kind != "gauge":
            raise TypeError(f"{self._family.name} is a {self._family.kind}")
        self.inc(-amount)

    def set(self, value: float) -> None:
        if self._family.kind != "gauge":
            raise TypeError(f"{self._family.name} is a {self._family.kind}")
        with self._family._registry.lock:
            self._family._get(self._key).value = float(value)

    def sync(self, total: float) -> None:
        """Mirror an externally maintained monotonic counter: set the
        series to its current total at scrape time."""
        if self._family.kind != "counter":
            raise TypeError(f"{self._family.name} is a {self._family.kind}")
        with self._family._registry.lock:
            self._family._get(self._key).value = float(total)

    def observe(self, value: float) -> None:
        if self._family.kind != "histogram":
            raise TypeError(f"{self._family.name} is a {self._family.kind}")
        buckets = self._family.buckets
        index = len(buckets)
        for position, bound in enumerate(buckets):
            if value <= bound:
                index = position
                break
        with self._family._registry.lock:
            series = self._family._get(self._key)
            series.counts[index] += 1
            series.sum += value
            series.count += 1


class MetricsRegistry:
    """A set of metric families; every accessor is idempotent."""

    def __init__(self):
        #: Re-entrant: hold it across several updates so that no
        #: snapshot sees some of them and not the rest.
        self.lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    def _family(self, name, help_text, kind, labelnames, buckets=None) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self.lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(self, name, help_text, kind, labelnames, buckets)
                self._families[name] = family
            elif family.kind != kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"type or label set"
                )
            return family

    def counter(self, name, help_text="", labelnames=()) -> MetricFamily:
        return self._family(name, help_text, "counter", labelnames)

    def gauge(self, name, help_text="", labelnames=()) -> MetricFamily:
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(
        self, name, help_text="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS
    ) -> MetricFamily:
        buckets = tuple(sorted(float(bound) for bound in buckets))
        if not buckets:
            raise ValueError("histograms need at least one bucket bound")
        return self._family(name, help_text, "histogram", labelnames, buckets)

    def snapshot(self) -> dict:
        """The registry as plain picklable data (see module docstring)."""
        with self.lock:
            out = {}
            for name, family in self._families.items():
                series = {}
                for key, state in family._series.items():
                    if family.kind == "histogram":
                        series[key] = {
                            "counts": list(state.counts),
                            "sum": state.sum,
                            "count": state.count,
                        }
                    else:
                        series[key] = state.value
                out[name] = {
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": family.labelnames,
                    "buckets": family.buckets,
                    "series": series,
                }
            return out

    def render(self) -> str:
        return render_snapshot(self.snapshot())


#: The per-process default registry.  Pool worker processes record
#: their morsel/steal counters here; the parent aggregates snapshots.
REGISTRY = MetricsRegistry()


def histogram_quantiles(buckets, series: dict, quantiles=(0.5, 0.99, 0.999)) -> dict:
    """Estimate quantiles from one snapshotted histogram series.

    ``buckets`` are the family's upper bounds and ``series`` one
    ``{"counts", "sum", "count"}`` entry from :meth:`snapshot`.  Uses
    the Prometheus convention: linear interpolation inside the owning
    bucket, with the +Inf bucket clamped to the largest finite bound
    (quantiles beyond the instrumented range are reported *at* the
    range edge rather than invented).  Empty series report 0.0.
    """
    counts = series["counts"]
    total = series["count"]
    out = {}
    for quantile in quantiles:
        if total <= 0:
            out[quantile] = 0.0
            continue
        rank = quantile * total
        cumulative = 0.0
        previous_bound = 0.0
        value = float(buckets[-1])
        for bound, count in zip(buckets, counts):
            if count and cumulative + count >= rank:
                inside = (rank - cumulative) / count
                value = previous_bound + (float(bound) - previous_bound) * inside
                break
            cumulative += count
            previous_bound = float(bound)
        out[quantile] = value
    return out


# ----------------------------------------------------------------------
# Snapshot aggregation and exposition
# ----------------------------------------------------------------------
def merge_snapshots(snapshots) -> dict:
    """Exact aggregation of registry snapshots.

    Counters and histogram buckets add; gauges add as well (the gauges
    we ship across processes are per-worker occupancy numbers whose
    fleet-wide meaning is the sum).  Families must agree on type,
    label names and bucket bounds.
    """
    merged: dict = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "type": family["type"],
                    "help": family["help"],
                    "labelnames": tuple(family["labelnames"]),
                    "buckets": family["buckets"],
                    "series": {
                        key: (dict(value) if isinstance(value, dict) else value)
                        for key, value in family["series"].items()
                    },
                }
                continue
            if (
                target["type"] != family["type"]
                or target["labelnames"] != tuple(family["labelnames"])
                or target["buckets"] != family["buckets"]
            ):
                raise ValueError(f"snapshot families for {name!r} are incompatible")
            for key, value in family["series"].items():
                existing = target["series"].get(key)
                if existing is None:
                    target["series"][key] = (
                        dict(value) if isinstance(value, dict) else value
                    )
                elif isinstance(value, dict):
                    existing["counts"] = [
                        a + b for a, b in zip(existing["counts"], value["counts"])
                    ]
                    existing["sum"] += value["sum"]
                    existing["count"] += value["count"]
                else:
                    target["series"][key] = existing + value
    return merged


def _label_text(labelnames, key, extra=()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"' for name, value in zip(labelnames, key)
    ]
    pairs += [f'{name}="{_escape_label(value)}"' for name, value in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_snapshot(snapshot: dict) -> str:
    """Prometheus text exposition of one (possibly merged) snapshot."""
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        labelnames = tuple(family["labelnames"])
        if family["help"]:
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        for key in sorted(family["series"]):
            value = family["series"][key]
            if family["type"] == "histogram":
                cumulative = 0
                for bound, count in zip(family["buckets"], value["counts"]):
                    cumulative += count
                    labels = _label_text(
                        labelnames, key, extra=(("le", _format_value(bound)),)
                    )
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                cumulative += value["counts"][-1]
                labels = _label_text(labelnames, key, extra=(("le", "+Inf"),))
                lines.append(f"{name}_bucket{labels} {cumulative}")
                plain = _label_text(labelnames, key)
                lines.append(f"{name}_sum{plain} {_format_value(value['sum'])}")
                lines.append(f"{name}_count{plain} {value['count']}")
            else:
                labels = _label_text(labelnames, key)
                lines.append(f"{name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>-?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)|[+-]Inf|NaN)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict:
    """Parse Prometheus text exposition; raises ValueError on any
    malformed line.  Returns ``{sample_name: {labels_tuple: value}}``
    plus a ``"__types__"`` entry mapping family name -> type.
    """
    samples: dict = {"__types__": {}}
    typed: set[str] = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_number}: malformed HELP: {line!r}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]) or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped",
            ):
                raise ValueError(f"line {line_number}: malformed TYPE: {line!r}")
            samples["__types__"][parts[2]] = parts[3]
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample: {line!r}")
        label_text = match.group("labels") or ""
        pairs = _LABEL_PAIR_RE.findall(label_text)
        reconstructed = ",".join(f'{name}="{value}"' for name, value in pairs)
        if reconstructed != label_text:
            raise ValueError(f"line {line_number}: malformed labels: {line!r}")
        value_text = match.group("value")
        value = float(value_text.replace("Inf", "inf"))
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base not in typed and name not in typed:
            raise ValueError(
                f"line {line_number}: sample {name!r} has no preceding TYPE"
            )
        samples.setdefault(name, {})[tuple(sorted(pairs))] = value
    return samples
