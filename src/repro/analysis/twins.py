"""Figure twins, built once per (database identity, builder) per process.

A twin is derived physical design -- a reordered, partitioned or
decoded copy of a database -- not an answer, so ``REPRO_EXEC_CACHE=0``
does not rebuild it.  A memoized twin also keeps its identity, so what
is keyed on that identity (shared hash-table builds, resolved
selection parameters, lazily built zone maps, engine runs) is built on
it once, not once per figure call.  Keyed on the parent's
``db.identity``, as :func:`repro.core.execcache.memoized_reference`
is: a parent that is mutated gets a new identity and a new twin.
"""

from __future__ import annotations

from repro import memo

#: One twin per builder for the database a figure round runs on.
_TWINS = memo.shared("twins", 2)


def figure_twin(db, build):
    """``build(db)``, built on the first call for ``db``'s identity and
    shared by every later one.  Callers must not mutate it."""
    return _TWINS.get_or_build((db.identity, build), lambda: build(db))
