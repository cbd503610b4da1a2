"""Plan compilation: logical plans -> fused vectorized kernel programs.

The hand-wired engine paths (:mod:`repro.engines`) cover the documented
micro-benchmarks and four TPC-H queries; everything else used to raise.
This package compiles *any* supported typed logical plan from
:mod:`repro.sql.planner` into a straight-line kernel program -- filters
evaluated through :func:`repro.engines.scan.predicate_mask` (code
domain and prune-constant aware), a selection vector threaded through
the pipeline so intermediates are never materialised, hash joins on
:class:`repro.engines.hashtable.ChainedHashTable`, and aggregation in
:class:`repro.core.exactsum.ExactSum` units so morsel partials merge
bit-identically on both executors.

Toggle with ``REPRO_COMPILE`` (on by default; see :mod:`repro.settings`).
"""

from __future__ import annotations

__all__ = ["CompileError"]


class CompileError(Exception):
    """A plan shape the compiler declines, with the reason.

    Lowering catches this and reports the reason in its "no binding"
    diagnostic; it is never a silent fallback to a wrong program.
    """
