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

Lowering always tries the compiler for a plan no template matches.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CompileError", "Declined"]


class CompileError(Exception):
    """A plan shape the compiler declines, with the reason.

    Lowering catches this and reports the reason in its "no binding"
    diagnostic; it is never a silent fallback to a wrong program.
    """


@dataclass(frozen=True)
class Declined:
    """A decline as a cache entry: the reason, raised again on each hit."""

    reason: str
