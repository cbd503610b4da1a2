"""Engine interface, shared micro-benchmark definitions and the one
data pass per workload.

The paper compares four systems that run the *same* plans over the
*same* data and hash tables and differ only in execution paradigm.
The code has that shape: every ``run_*`` method is written once, on
:class:`Engine`.  It *executes the query for real* on numpy data (the
shared data pass: predicate masks, hash probes, exact sums), hands what
it measured to the engine's ``_cost_<workload>`` recorder -- the only
per-engine code, which prices those measurements into a
:class:`~repro.core.workprofile.WorkProfile` -- and finishes through
one skeleton (:meth:`Engine._conclude`) and one ``_finish_*`` per
workload.  Results are therefore identical across engines by
construction; only the recorded work differs.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.core.exactsum import ExactSum
from repro.core.workprofile import WorkProfile
from repro.engines.hashtable import ChainedHashTable, GroupByHashTable
from repro.engines.morsel import (
    key_table,
    merge_worker_partials,
    resolve_range,
    shared_structure,
    touched_lines,
)
from repro.engines.scan import (
    AGG_STATE_KEY,
    combined_key,
    decision_details,
    exact_sum_column,
    predicate_mask,
    q1_encoded_aggregation,
    record_encoded_agg,
)
from repro.obs import trace
from repro.storage import Database
from repro.tpch import schema as sc
from repro.tpch.schema import PROJECTION_COLUMNS, SELECTION_PREDICATE_COLUMNS

#: Join micro-benchmark sizes, in paper order (Section 2).
JOIN_SIZES = ("small", "medium", "large")

#: Selectivities the selection micro-benchmark sweeps (per predicate).
SELECTION_SELECTIVITIES = (0.1, 0.5, 0.9)


@dataclass(frozen=True)
class JoinSpec:
    """One join micro-benchmark: build side, probe side and the summed
    expression over the probe table (Section 2)."""

    size: str
    build_table: str
    build_key: str
    probe_table: str
    probe_key: str
    sum_columns: tuple[str, ...]


JOIN_SPECS = {
    "small": JoinSpec(
        "small", "nation", "n_nationkey", "supplier", "s_nationkey",
        ("s_acctbal", "s_suppkey"),
    ),
    "medium": JoinSpec(
        "medium", "supplier", "s_suppkey", "partsupp", "ps_suppkey",
        ("ps_availqty", "ps_supplycost"),
    ),
    "large": JoinSpec(
        "large", "orders", "o_orderkey", "lineitem", "l_orderkey",
        PROJECTION_COLUMNS,
    ),
}


@dataclass
class QueryResult:
    """What one engine execution produced and what it cost."""

    workload: str
    value: object
    tuples: int
    work: WorkProfile
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.work.label = self.workload
        self.work.tuples = self.tuples

    @property
    def operator_work(self) -> dict[str, WorkProfile]:
        """Per-operator work profiles, when the engine recorded them
        (Section 6: query behaviour decomposes into operator behaviour)."""
        return self.details.get("operators", {})


class OperatorWork:
    """Accumulates per-operator work profiles during one execution.

    Engines that want operator-level attribution record each pipeline
    stage into its own profile; :meth:`total` merges them into the
    query-level profile the profiler consumes.
    """

    def __init__(self, engine: "Engine"):
        self._engine = engine
        self.profiles: dict[str, WorkProfile] = {}

    def operator(self, name: str) -> WorkProfile:
        """The (new or existing) profile for one named operator."""
        if name not in self.profiles:
            profile = self._engine._new_work()
            profile.label = name
            self.profiles[name] = profile
        return self.profiles[name]

    def total(self) -> WorkProfile:
        """All operators merged into one query-level profile."""
        merged = self._engine._new_work()
        for profile in self.profiles.values():
            merged.merge(profile)
        return merged


def projection_columns(degree: int) -> tuple[str, ...]:
    """The lineitem columns a projection query of ``degree`` sums."""
    if not 1 <= degree <= len(PROJECTION_COLUMNS):
        raise ValueError(
            f"projection degree must be in [1, {len(PROJECTION_COLUMNS)}]"
        )
    return PROJECTION_COLUMNS[:degree]


def selection_thresholds(db: Database, selectivity: float) -> dict[str, float]:
    """Per-predicate thresholds giving each predicate the requested
    individual selectivity on the actual data (the micro-benchmark
    varies the selectivity of each individual predicate)."""
    if not 0.0 < selectivity < 1.0:
        raise ValueError("selectivity must be in (0, 1)")
    lineitem = db.table("lineitem")
    return {
        column: float(np.quantile(lineitem[column], selectivity))
        for column in SELECTION_PREDICATE_COLUMNS
    }


def resolve_selection(
    db: Database,
    selectivity: float | None,
    thresholds=None,
) -> tuple[float, dict[str, float]]:
    """Resolve the selection micro-benchmark's parameters.

    The hand-wired drivers pass a ``selectivity`` and derive per-column
    thresholds from the data; the SQL path parses literal thresholds
    and passes them through unchanged (so a round-trip is exact) with
    ``selectivity=None``, in which case the nominal per-predicate
    selectivity is measured from the data for labelling.  ``thresholds``
    may be a dict keyed by predicate column or a tuple in
    :data:`SELECTION_PREDICATE_COLUMNS` order.
    """
    if thresholds is None:
        if selectivity is None:
            raise ValueError("need a selectivity or explicit thresholds")
        return selectivity, selection_thresholds(db, selectivity)
    if not isinstance(thresholds, dict):
        if len(thresholds) != len(SELECTION_PREDICATE_COLUMNS):
            raise ValueError(
                f"expected {len(SELECTION_PREDICATE_COLUMNS)} thresholds "
                f"(for {SELECTION_PREDICATE_COLUMNS}), got {len(thresholds)}"
            )
        thresholds = dict(zip(SELECTION_PREDICATE_COLUMNS, thresholds))
    thresholds = {column: float(value) for column, value in thresholds.items()}
    if set(thresholds) != set(SELECTION_PREDICATE_COLUMNS):
        raise ValueError(
            f"thresholds must cover exactly {SELECTION_PREDICATE_COLUMNS}"
        )
    if selectivity is None:
        lineitem = db.table("lineitem")
        fractions = [
            float(np.mean(lineitem[column] <= threshold))
            for column, threshold in thresholds.items()
        ]
        selectivity = min(max(float(np.mean(fractions)), 1e-9), 1.0 - 1e-9)
    return selectivity, thresholds


def selection_predicate_masks(
    db: Database, thresholds: dict[str, float]
) -> list[tuple[str, np.ndarray]]:
    """The three predicates' boolean outcome vectors over lineitem."""
    lineitem = db.table("lineitem")
    return [
        (column, lineitem[column] <= threshold)
        for column, threshold in thresholds.items()
    ]


def line_density(indices: np.ndarray, total_rows: int, itemsize: int = 8) -> float:
    """Fraction of a column's cache lines a gather at ``indices``
    touches (measured, for sparse-scan accounting)."""
    if total_rows <= 0 or not len(indices):
        return 1.0
    values_per_line = max(1, 64 // itemsize)
    total_lines = -(-total_rows // values_per_line)
    return touched_lines(indices, values_per_line, 0, total_lines) / total_lines


_RESOLVED_SELECTIONS: dict = {}
_RESOLVED_SELECTIONS_LOCK = threading.Lock()


def resolve_selection_cached(db: Database, selectivity, thresholds):
    """Memoized :func:`resolve_selection`.

    Morsel execution resolves the selection parameters once per query
    per process instead of once per morsel -- the quantile/mean passes
    scan whole columns and would otherwise dominate small morsels."""
    if isinstance(thresholds, dict):
        thresholds_key = tuple(sorted(thresholds.items()))
    elif thresholds is None:
        thresholds_key = None
    else:
        thresholds_key = tuple(float(value) for value in thresholds)
    key = (db.identity, selectivity, thresholds_key)
    with _RESOLVED_SELECTIONS_LOCK:
        if key in _RESOLVED_SELECTIONS:
            return _RESOLVED_SELECTIONS[key]
    resolved = resolve_selection(db, selectivity, thresholds)
    with _RESOLVED_SELECTIONS_LOCK:
        _RESOLVED_SELECTIONS.setdefault(key, resolved)
        while len(_RESOLVED_SELECTIONS) > 64:
            _RESOLVED_SELECTIONS.pop(next(iter(_RESOLVED_SELECTIONS)))
    return resolved


@dataclass
class MergedPartials:
    """The exactly merged state of one execution's morsel partials,
    handed to an engine's ``_finish_*`` method (the same object a
    single-shot run builds from its one full-range morsel)."""

    state: dict
    work: WorkProfile
    tuples: int
    operators: dict[str, WorkProfile] | None = None


class Facts(SimpleNamespace):
    """What one shared data pass measured over rows ``[lo, hi)``.

    ``state`` is the exactly mergeable value state (what a morsel
    partial carries and a ``_finish_*`` consumes); every other attribute
    is a measured stream or structure the ``_cost_*`` recorders price:
    predicate masks, qualifying row indices, :class:`ProbeResult`\\ s,
    the hash tables probed."""


def _simd_suffix(simd: bool) -> str:
    return "-simd" if simd else ""


#: ``QueryResult.workload`` of each workload from its run parameters
#: (selection takes the *resolved* selectivity).
_LABELS = {
    "projection": lambda degree, simd=False: f"projection-p{degree}{_simd_suffix(simd)}",
    "selection": lambda selectivity, predicated=False, simd=False, thresholds=None: (
        f"selection-{int(selectivity * 100)}%"
        + ("-predicated" if predicated else "")
        + _simd_suffix(simd)
    ),
    "join": lambda size, simd=False: f"join-{size}{_simd_suffix(simd)}",
    "groupby": lambda: "groupby-micro",
    "q1": lambda: "Q1",
    "q6": lambda predicated=False: "Q6-predicated" if predicated else "Q6",
    "q9": lambda: "Q9",
    "q18": lambda: "Q18",
}

#: ``run_tpch`` query id -> per-query runner (the dispatch of
#: :meth:`Engine.run_tpch`, shared with call normalisation and lowering).
TPCH_RUNNERS = {"Q1": "run_q1", "Q6": "run_q6", "Q9": "run_q9", "Q18": "run_q18"}


class Engine(ABC):
    """A profiled system: the shared workloads plus one cost model.

    A concrete engine supplies ``_cost_<workload>(db, facts, lo, hi,
    **params)`` for each of the eight workloads -- returning the
    :class:`WorkProfile` (or :class:`OperatorWork`) of executing rows
    ``[lo, hi)`` its way, priced from the :class:`Facts` the shared
    pass measured -- and the ``_record_build`` / ``_record_probe``
    helpers the Q18 finisher calls.  Everything else (values, morsel
    partials, merging, finishing) is inherited.  An engine that models
    a TPC-H query over a different plan overrides that ``run_q*`` and
    ``_finish_q*`` instead of supplying its ``_cost_q*`` (the
    interpreters do); the four micro-benchmark recorders are required.

    ``run_*`` methods are transparently memoized per process through
    :mod:`repro.core.execcache` (keyed by engine class, method,
    database identity and arguments), so the profiling drivers stop
    re-executing identical runs.  Results served from the cache carry
    ``details["cached"] = True``.
    """

    #: Display name, e.g. "DBMS R", "Typer".
    name: str = "engine"
    #: Approximate hot-code footprint in bytes (drives front-end model).
    code_footprint_bytes: float = 4096.0
    #: Whether the engine has a SIMD (AVX-512) implementation.
    supports_simd: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _memoize_run_methods(cls)

    #: Deferred-work resolution rates (see
    #: :meth:`WorkProfile.record_pending`): pending key -> tuple of
    #: (record_work keyword, per-unit cost).  Applied once per profile
    #: at finalization so non-dyadic per-unit costs round identically
    #: for single-shot and merged morsel runs.
    PENDING_RATES: dict = {}

    def _new_work(self) -> WorkProfile:
        return WorkProfile(code_footprint_bytes=self.code_footprint_bytes)

    def _check_simd(self, simd: bool) -> None:
        if simd and not self.supports_simd:
            raise ValueError(f"{self.name} has no SIMD implementation")

    # ------------------------------------------------------------------
    # Morsel protocol (repro.core.parallel)
    # ------------------------------------------------------------------
    def _finalize_profile(self, work: WorkProfile) -> WorkProfile:
        """Resolve deferred work and prune sub-one-event entries.

        Both the single-shot path and the morsel merge path run every
        profile through this exactly once, immediately before building
        the final :class:`QueryResult`."""
        for key in sorted(work.pending):
            amount = work.pending[key]
            rates = self.PENDING_RATES[key]
            work.record_work(**{field_name: amount * rate for field_name, rate in rates})
        work.pending.clear()
        work.drop_negligible()
        return work

    def _partial_result(
        self,
        label: str,
        state: dict,
        tuples: int,
        work: WorkProfile,
        row_range: tuple[int, int],
        operators: dict[str, WorkProfile] | None = None,
    ) -> QueryResult:
        """Package one morsel's raw measurements as a partial result."""
        details: dict = {"partial": state, "row_range": (int(row_range[0]), int(row_range[1]))}
        if operators is not None:
            details["operators"] = operators
        return QueryResult(label, None, tuples, work, details)

    def _price(
        self, workload: str, db: Database, facts: Facts, lo: int, hi: int,
        row_range, **params,
    ) -> QueryResult:
        """Hand what a shared pass measured to this engine's cost
        recorder, then :meth:`_conclude`."""
        cost = getattr(self, f"_cost_{workload}")(db, facts, lo, hi, **params)
        return self._conclude(workload, db, facts.state, cost, lo, hi, row_range, **params)

    def _conclude(
        self, workload: str, db: Database, state: dict, cost, lo: int, hi: int,
        row_range, **params,
    ) -> QueryResult:
        """The tail of every ``run_*``: a morsel run (``row_range`` set)
        returns its measurements as a partial; a single-shot run *is*
        one full-range morsel handed to the same ``_finish_*`` the
        parallel executor's merge uses, so merged runs are bit-identical
        to single-shot runs by construction.

        ``cost`` is what the engine's ``_cost_*`` returned: the total
        :class:`WorkProfile`, or an :class:`OperatorWork` when the
        engine attributes work per operator."""
        work, operators = cost, None
        if isinstance(cost, OperatorWork):
            work, operators = cost.total(), cost.profiles
        if row_range is not None:
            return self._partial_result(
                _LABELS[workload](**params), state, hi - lo, work, (lo, hi), operators
            )
        finisher = getattr(self, f"_finish_{workload}")
        return finisher(db, MergedPartials(state, work, hi - lo, operators), **params)

    def _result(
        self, workload: str, value, merged: MergedPartials, details: dict, **params
    ) -> QueryResult:
        """The tail of every ``_finish_*``: finalize the total and the
        per-operator profiles, surface the morph decision, package
        under the workload's label."""
        decision = merged.state.pop(AGG_STATE_KEY, None)
        work = self._finalize_profile(merged.work)
        if merged.operators is not None:
            details["operators"] = {
                name: self._finalize_profile(profile)
                for name, profile in merged.operators.items()
            }
        if decision:
            record_encoded_agg(decision)
            details["encoded_agg"] = decision_details(decision)
        return QueryResult(
            _LABELS[workload](**params), value, merged.tuples, work, details
        )

    def merge_morsels(self, db: Database, method: str, kwargs: dict, partials) -> QueryResult:
        """Merge morsel partials of one execution into the final
        :class:`QueryResult`, bit-identical to a single-shot run.

        ``partials`` are the results of ``run_<method>(db, ...,
        row_range=...)`` calls whose ranges tile ``[0, n_rows)`` of the
        partitioned table.  Merging consumes the partials' state.
        """
        partials = list(partials)
        if not partials:
            raise ValueError("no morsel partials to merge")
        with trace.span("merge", morsels=len(partials)):
            return self._merge_morsels(db, method, kwargs, partials)

    def _merge_morsels(self, db, method, kwargs, partials) -> QueryResult:
        for partial in partials:
            if "partial" not in partial.details:
                raise ValueError("merge_morsels needs partial results (row_range runs)")
        folded = merge_worker_partials(partials)
        merged = MergedPartials(
            state=folded.details["partial"],
            work=folded.work,
            tuples=folded.tuples,
            operators=folded.details.get("operators"),
        )
        finisher = getattr(self, f"_finish_{method[len('run_'):]}", None)
        if finisher is None:
            raise ValueError(f"{self.name} has no morsel finisher for {method!r}")
        return finisher(db, merged, **dict(kwargs))

    def morsel_position_signature(
        self, db: Database, method: str, kwargs: dict, lo: int, hi: int
    ):
        """Hashable token capturing any *position-dependent* quantity a
        morsel partial of ``[lo, hi)`` records beyond its length.

        Every engine records translation-invariant work over 64-aligned
        ranges -- two equally-pruned morsels of equal length produce
        bit-identical partials -- so the default is None.  Engines with
        position-dependent accounting (DBMS R's page-granular scan
        bytes) override this so :mod:`repro.core.pruning` never clones a
        partial across positions that would have recorded differently.
        """
        return None

    def partition_rows(self, db: Database, method: str, kwargs: dict) -> int:
        """Row count of the table ``method`` partitions into morsels
        (the probe side for joins, lineitem for everything else).

        ``kwargs`` is a dict or the ``(key, value)`` item tuple passed
        to :meth:`merge_morsels`."""
        kwargs = dict(kwargs)
        if method == "run_join":
            size = kwargs.get("size") or (kwargs.get("args") or [None])[0]
            if size not in JOIN_SPECS:
                raise ValueError(f"unknown join size {size!r}")
            return db.table(JOIN_SPECS[size].probe_table).n_rows
        if method == "run_compiled":
            from repro.compile.program import compiled_program

            plan = kwargs.get("plan") or (kwargs.get("args") or [None])[0]
            return db.table(compiled_program(plan).driving).n_rows
        return db.table("lineitem").n_rows

    # ------------------------------------------------------------------
    # Micro-benchmarks (Sections 3-5, 7, 8)
    # ------------------------------------------------------------------
    @abstractmethod
    def _cost_projection(self, db, facts, lo, hi, degree, simd=False):
        """Work of summing ``facts.columns`` over rows ``[lo, hi)``."""

    @abstractmethod
    def _cost_selection(
        self, db, facts, lo, hi, selectivity, predicated=False, simd=False, thresholds=None
    ):
        """Work of filtering by ``facts.masks`` and summing the
        ``facts.qualifying`` rows of ``facts.proj_cols``."""

    @abstractmethod
    def _cost_join(self, db, facts, lo, hi, size, simd=False):
        """Work of building ``facts.table`` (lead morsel), probing it
        (``facts.probe``) and summing over the matches."""

    @abstractmethod
    def _cost_groupby(self, db, facts, lo, hi):
        """Work of aggregating rows ``[lo, hi)`` into ``facts.table``."""

    def run_projection(
        self, db: Database, degree: int, simd: bool = False, row_range=None
    ) -> QueryResult:
        """SUM over the first ``degree`` projection columns of lineitem."""
        self._check_simd(simd)
        columns = projection_columns(degree)
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        if degree == 1:
            # Single column: ``0.0 + v`` carries the same ExactSum units
            # as ``v`` (both signed zeros convert to zero units), so the
            # sum may come straight from the storage codec.
            total_sum, mode, why = exact_sum_column(lineitem, columns[0], lo, hi)
            decision = (("sum", columns[0], mode, why),)
        else:
            # Higher degrees round per row inside ``a + b + ...``; no
            # per-column code rebase reproduces that, so decode.
            # Start from the first (float64) column: a ``0.0`` seed is a
            # pass that changes no unit, by the argument above.
            total = lineitem[columns[0]][lo:hi]
            for column in columns[1:]:
                total = total + lineitem[column][lo:hi]
            total_sum = ExactSum.of_array(total)
            decision = tuple(
                ("sum", column, "decoded", "per-row-rounding")
                for column in columns
            )
        facts = Facts(state={"sum": total_sum, AGG_STATE_KEY: decision}, columns=columns)
        return self._price(
            "projection", db, facts, lo, hi, row_range, degree=degree, simd=simd
        )

    def _finish_projection(
        self, db: Database, merged: MergedPartials, degree: int, simd: bool = False
    ) -> QueryResult:
        return self._result(
            "projection", merged.state["sum"].total(), merged, {"simd": simd},
            degree=degree, simd=simd,
        )

    def run_selection(
        self,
        db: Database,
        selectivity: float | None,
        predicated: bool = False,
        simd: bool = False,
        thresholds=None,
        row_range=None,
    ) -> QueryResult:
        """Projection of degree 4 with three predicates of the given
        individual selectivity; ``predicated`` selects the branch-free
        variant (Section 7).  ``thresholds`` (see
        :func:`resolve_selection`) bypasses the quantile derivation --
        the SQL frontend passes parsed literals through it."""
        self._check_simd(simd)
        selectivity, thresholds = resolve_selection_cached(db, selectivity, thresholds)
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        masks = [
            (column, predicate_mask(lineitem, column, "le", threshold, lo, hi))
            for column, threshold in thresholds.items()
        ]
        combined = masks[0][1] & masks[1][1] & masks[2][1]
        qualifying = np.flatnonzero(combined)
        proj_cols = projection_columns(4)
        projected = lineitem[proj_cols[0]][lo:hi][qualifying]
        for column in proj_cols[1:]:
            projected = projected + lineitem[column][lo:hi][qualifying]
        facts = Facts(
            state={"sum": ExactSum.of_array(projected), "qualifying": len(qualifying)},
            proj_cols=proj_cols,
            masks=masks,
            combined=combined,
            qualifying=qualifying,
        )
        return self._price(
            "selection", db, facts, lo, hi, row_range,
            selectivity=selectivity, predicated=predicated, simd=simd, thresholds=thresholds,
        )

    def _finish_selection(
        self,
        db: Database,
        merged: MergedPartials,
        selectivity: float | None,
        predicated: bool = False,
        simd: bool = False,
        thresholds=None,
    ) -> QueryResult:
        selectivity, _ = resolve_selection_cached(db, selectivity, thresholds)
        n = merged.tuples
        details = {
            "selectivity": selectivity,
            "combined_selectivity": merged.state["qualifying"] / n if n else 0.0,
            "predicated": predicated,
            "simd": simd,
        }
        return self._result(
            "selection", merged.state["sum"].total(), merged, details,
            selectivity=selectivity, predicated=predicated, simd=simd,
        )

    def run_join(
        self, db: Database, size: str, simd: bool = False, row_range=None
    ) -> QueryResult:
        """Hash join micro-benchmark of the given size (Section 5)."""
        self._check_simd(simd)
        if size not in JOIN_SPECS:
            raise ValueError(f"unknown join size {size!r}")
        spec = JOIN_SPECS[size]
        probe = db.table(spec.probe_table)
        lo, hi = resolve_range(row_range, probe.n_rows)
        table = key_table(db, spec.build_table, spec.build_key)
        result = table.probe(probe[spec.probe_key][lo:hi])
        matched = np.flatnonzero(result.found)
        projected = probe[spec.sum_columns[0]][lo:hi][matched]
        for column in spec.sum_columns[1:]:
            projected = projected + probe[column][lo:hi][matched]
        facts = Facts(
            state={"sum": ExactSum.of_array(projected), "found": len(matched)},
            spec=spec,
            table=table,
            probe=result,
        )
        return self._price("join", db, facts, lo, hi, row_range, size=size, simd=simd)

    def _finish_join(
        self, db: Database, merged: MergedPartials, size: str, simd: bool = False
    ) -> QueryResult:
        spec = JOIN_SPECS[size]
        table = key_table(db, spec.build_table, spec.build_key)
        n_probe = merged.tuples
        details = {
            "join_size": size,
            "build_rows": db.table(spec.build_table).n_rows,
            "probe_rows": n_probe,
            "hit_fraction": merged.state["found"] / n_probe if n_probe else 0.0,
            "chain_stats": table.chain_stats(),
            "hash_table_bytes": table.working_set_bytes,
            "simd": simd,
        }
        return self._result(
            "join", merged.state["sum"].total(), merged, details, size=size, simd=simd
        )

    def _groupby_table(self, db: Database) -> GroupByHashTable:
        def build():
            lineitem = db.table("lineitem")
            composite = lineitem["l_partkey"] * 4 + lineitem["l_returnflag"]
            return GroupByHashTable(composite)

        return shared_structure(db, "groupby-micro", build)

    def run_groupby(self, db: Database, row_range=None) -> QueryResult:
        """Group-by micro-benchmark (Section 2/6 discussion)."""
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        total, mode, why = exact_sum_column(lineitem, "l_extendedprice", lo, hi)
        facts = Facts(
            state={
                "sum": total,
                AGG_STATE_KEY: (("sum", "l_extendedprice", mode, why),),
            },
            table=self._groupby_table(db),
        )
        return self._price("groupby", db, facts, lo, hi, row_range)

    def _finish_groupby(self, db: Database, merged: MergedPartials) -> QueryResult:
        table = self._groupby_table(db)
        details = {
            "groups": table.n_groups,
            "chain_stats": table.chain_stats(),
            "collision_fraction": table.collision_fraction(),
        }
        return self._result("groupby", merged.state["sum"].total(), merged, details)

    # ------------------------------------------------------------------
    # TPC-H (Section 6)
    # ------------------------------------------------------------------
    def run_tpch(
        self,
        db: Database,
        query_id: str,
        predicated: bool = False,
        row_range=None,
    ) -> QueryResult:
        if query_id not in TPCH_RUNNERS:
            raise ValueError(f"unsupported TPC-H query {query_id!r}")
        # Forward row_range only when set so subclasses that override a
        # runner without morsel support keep working for full runs.
        extra = {} if row_range is None else {"row_range": row_range}
        if query_id == "Q6":
            return self.run_q6(db, predicated=predicated, **extra)
        if predicated:
            raise ValueError("predication is studied on Q6 only (Section 7)")
        return getattr(self, TPCH_RUNNERS[query_id])(db, **extra)

    def run_q1(self, db: Database, row_range=None) -> QueryResult:
        """TPC-H Q1: low-cardinality group by."""
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        mask = predicate_mask(lineitem, "l_shipdate", "le", sc.DATE_1998_09_02, lo, hi)

        encoded_payload, agg_decision = q1_encoded_aggregation(lineitem, lo, hi, mask)
        price = lineitem["l_extendedprice"][lo:hi][mask]
        discount = lineitem["l_discount"][lo:hi][mask]
        tax = lineitem["l_tax"][lo:hi][mask]
        disc_price = price * (1.0 - discount)
        charge = disc_price * (1.0 + tax)
        if encoded_payload is not None:
            # One combined bincount over (flag x status x quantity-code)
            # cells delivered both the exact quantity sum and the set of
            # observed group keys; the decoded quantity/key columns are
            # never materialised.
            sum_qty, keys = encoded_payload
        else:
            sum_qty = ExactSum.of_array(lineitem["l_quantity"][lo:hi][mask])
            group_key = combined_key(
                lineitem, "l_returnflag", "l_linestatus", 2, lo, hi, take=mask
            )
            keys = set(np.unique(group_key).tolist())
        facts = Facts(
            state={
                "sum_qty": sum_qty,
                "sum_base_price": ExactSum.of_array(price),
                "sum_disc_price": ExactSum.of_array(disc_price),
                "sum_charge": ExactSum.of_array(charge),
                "keys": keys,
                AGG_STATE_KEY: agg_decision,
            },
            mask=mask,
            selected=len(price),
        )
        return self._price("q1", db, facts, lo, hi, row_range)

    def _finish_q1(self, db: Database, merged: MergedPartials) -> QueryResult:
        groups = len(merged.state["keys"])
        value = {
            "sum_qty": merged.state["sum_qty"].total(),
            "sum_base_price": merged.state["sum_base_price"].total(),
            "sum_disc_price": merged.state["sum_disc_price"].total(),
            "sum_charge": merged.state["sum_charge"].total(),
            "groups": groups,
        }
        return self._result("q1", value, merged, {"groups": groups})

    def run_q6(self, db: Database, predicated: bool = False, row_range=None) -> QueryResult:
        """TPC-H Q6: highly selective filter."""
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        # The five one-sided predicates, in evaluation order.
        predicates = [
            (f"{column} {symbol}", column, predicate_mask(lineitem, column, op, bound, lo, hi))
            for column, symbol, op, bound in (
                ("l_shipdate", ">=", "ge", sc.DATE_1994_01_01),
                ("l_shipdate", "<", "lt", sc.DATE_1995_01_01),
                ("l_discount", ">=", "ge", 0.05),
                ("l_discount", "<=", "le", 0.07),
                ("l_quantity", "<", "lt", 24.0),
            )
        ]
        sided = [mask for _, _, mask in predicates]
        # ... and the three per-column conjuncts a compiled loop sees.
        conjuncts = (sided[0] & sided[1], sided[2] & sided[3], sided[4])
        qualifying = np.flatnonzero(conjuncts[0] & conjuncts[1] & conjuncts[2])
        amounts = (
            lineitem["l_extendedprice"][lo:hi][qualifying]
            * lineitem["l_discount"][lo:hi][qualifying]
        )
        facts = Facts(
            state={"sum": ExactSum.of_array(amounts), "qualifying": len(qualifying)},
            predicates=predicates,
            conjuncts=conjuncts,
            qualifying=qualifying,
        )
        return self._price("q6", db, facts, lo, hi, row_range, predicated=predicated)

    def _finish_q6(
        self, db: Database, merged: MergedPartials, predicated: bool = False
    ) -> QueryResult:
        n = merged.tuples
        details = {
            "selectivity": merged.state["qualifying"] / n if n else 0.0,
            "predicated": predicated,
        }
        return self._result(
            "q6", merged.state["sum"].total(), merged, details, predicated=predicated
        )

    def _q9_structures(self, db: Database) -> dict:
        def build():
            part = db.table("part")
            partsupp = db.table("partsupp")
            n_supp = db.table("supplier").n_rows
            green_keys = part["p_partkey"][part["p_namecat"] == sc.GREEN_CATEGORY]
            ps_composite = partsupp["ps_partkey"] * (n_supp + 1) + partsupp["ps_suppkey"]
            return {
                "n_supp": n_supp,
                "green_keys": green_keys,
                "green_table": ChainedHashTable(green_keys),
                "ps_table": ChainedHashTable(ps_composite),
            }

        return shared_structure(db, "q9-structs", build)

    def run_q9(self, db: Database, row_range=None) -> QueryResult:
        """TPC-H Q9: join-intensive."""
        lineitem = db.table("lineitem")
        partsupp = db.table("partsupp")
        supplier = db.table("supplier")
        orders = db.table("orders")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        structs = self._q9_structures(db)
        n_supp = structs["n_supp"]
        green_table = structs["green_table"]
        ps_table = structs["ps_table"]
        supp_table = key_table(db, "supplier", "s_suppkey")
        orders_table = key_table(db, "orders", "o_orderkey")

        partkey = lineitem["l_partkey"][lo:hi]
        green_probe = green_table.probe(partkey)
        green = np.flatnonzero(green_probe.found)

        suppkey = lineitem["l_suppkey"][lo:hi][green]
        ps_probe = ps_table.probe(partkey[green] * (n_supp + 1) + suppkey)
        supp_probe = supp_table.probe(suppkey)
        orders_probe = orders_table.probe(lineitem["l_orderkey"][lo:hi][green])

        keep = ps_probe.found & supp_probe.found & orders_probe.found
        kept = green[keep]
        supplycost = partsupp["ps_supplycost"][ps_probe.match_index[keep]]
        price = lineitem["l_extendedprice"][lo:hi][kept]
        disc = lineitem["l_discount"][lo:hi][kept]
        qty = lineitem["l_quantity"][lo:hi][kept]
        amount = price * (1.0 - disc) - supplycost * qty
        m, q = hi - lo, len(green)
        facts = Facts(
            state={
                "sum": ExactSum.of_array(amount),
                "green": q,
                "survivors": len(kept),
            },
            # (table, build-side bytes read) per hash build ...
            builds=(
                (green_table, structs["green_keys"].nbytes),
                (ps_table, partsupp.bytes_for(("ps_partkey", "ps_suppkey", "ps_supplycost"))),
                (supp_table, supplier.bytes_for(("s_suppkey", "s_nationkey"))),
                (orders_table, orders.bytes_for(("o_orderkey", "o_orderdate"))),
            ),
            # ... and (build side, table, result, probe count) per probe,
            # both in pipeline order.
            probes=(
                ("part (green)", green_table, green_probe, m),
                ("partsupp", ps_table, ps_probe, q),
                ("supplier", supp_table, supp_probe, q),
                ("orders", orders_table, orders_probe, q),
            ),
        )
        return self._price("q9", db, facts, lo, hi, row_range)

    def _finish_q9(self, db: Database, merged: MergedPartials) -> QueryResult:
        n = merged.tuples
        details = {
            "green_fraction": merged.state["green"] / n if n else 0.0,
            "survivors": merged.state["survivors"],
            "orders_ht_bytes": key_table(db, "orders", "o_orderkey").working_set_bytes,
        }
        return self._result("q9", merged.state["sum"].total(), merged, details)

    def _q18_group_table(self, db: Database, target_load: float = 0.4) -> GroupByHashTable:
        return shared_structure(
            db,
            ("q18-groups", target_load),
            lambda: GroupByHashTable(
                db.table("lineitem")["l_orderkey"], target_load=target_load
            ),
        )

    def run_q18(self, db: Database, row_range=None) -> QueryResult:
        """TPC-H Q18: high-cardinality group by."""
        lineitem = db.table("lineitem")
        lo, hi = resolve_range(row_range, lineitem.n_rows)
        group_table = self._q18_group_table(db)
        # Partial per-group quantity sums: l_quantity is integer-valued,
        # so the bincount partials add exactly across morsels.
        qty_sums = np.bincount(
            group_table.group_ids[lo:hi],
            weights=lineitem["l_quantity"][lo:hi],
            minlength=group_table.n_groups,
        )
        facts = Facts(state={"qty_sums": qty_sums}, table=group_table)
        return self._price("q18", db, facts, lo, hi, row_range)

    def _finish_q18(self, db: Database, merged: MergedPartials) -> QueryResult:
        """The HAVING filter and the two joins over its few winners run
        once, on the merged group sums -- so this finisher records work
        too, through the engine's build/probe recorders."""
        orders = db.table("orders")
        customer = db.table("customer")
        group_table = self._q18_group_table(db)
        work = merged.work

        qty_sums = merged.state["qty_sums"]
        big = qty_sums > 300.0
        winner_orderkeys = group_table.distinct_keys[big]
        winners = len(winner_orderkeys)

        orders_table = key_table(db, "orders", "o_orderkey")
        winner_probe = orders_table.probe(winner_orderkeys)
        custkeys = orders["o_custkey"][winner_probe.match_index[winner_probe.found]]
        cust_table = key_table(db, "customer", "c_custkey")
        cust_probe = cust_table.probe(custkeys)
        value = {
            "winners": winners,
            "sum_winner_qty": float(qty_sums[big].sum()),
            "matched_customers": int(cust_probe.found.sum()),
        }

        # HAVING branch over all groups (rarely taken).
        work.record_branch_stream(
            "having sum(qty) > 300",
            group_table.n_groups,
            winners / group_table.n_groups if group_table.n_groups else 0.0,
        )
        self._record_build(work, orders_table, orders.bytes_for(("o_orderkey", "o_custkey")))
        self._record_probe(work, orders_table, winner_probe, winners)
        self._record_build(work, cust_table, customer.bytes_for(("c_custkey",)))
        self._record_probe(work, cust_table, cust_probe, len(custkeys))
        details = {
            "groups": group_table.n_groups,
            "group_table_bytes": group_table.working_set_bytes,
            "chain_stats": group_table.chain_stats(),
        }
        return self._result("q18", value, merged, details)

    # ------------------------------------------------------------------
    # Compiled kernel programs (repro.compile)
    # ------------------------------------------------------------------
    def run_compiled(self, db: Database, plan, row_range=None) -> QueryResult:
        """Execute a compiled fused kernel program for ``plan``.

        The program is shared across engines (compiled once per plan
        per process) and accumulates in exact units, so every engine
        and both executors produce bit-identical values.  Defined on
        the base class: the compiled path *is* the bespoke engine.
        """
        from repro.compile.program import execute_compiled

        return execute_compiled(self, db, plan, row_range)

    def _finish_compiled(self, db: Database, merged, plan) -> QueryResult:
        from repro.compile.program import finish_compiled

        return finish_compiled(self, db, merged, plan)


def _memoize_run_methods(cls) -> None:
    """Wrap the ``run_*`` methods ``cls`` itself defines with the
    execution cache, once each.  ``Engine.__init_subclass__`` calls it
    for every subclass; the call below covers the shared methods
    defined on :class:`Engine` (the cache key uses ``type(self)``, so
    one wrapper serves every engine)."""
    from repro.core.execcache import CACHED_METHODS, memoized_execution

    for method_name in CACHED_METHODS:
        func = cls.__dict__.get(method_name)
        if func is not None and not getattr(func, "_execcache_wrapped", False):
            setattr(cls, method_name, memoized_execution(method_name, func))


_memoize_run_methods(Engine)
