"""The micro-benchmark sweeps' one loop: profile every engine at every
argument and check that the engines agree exactly."""

from __future__ import annotations

from typing import Callable

from repro.core.profiler import MicroArchProfiler
from repro.core.report import ProfileReport


def profile_sweep(
    engines,
    profiler: MicroArchProfiler,
    arguments,
    run: Callable,
    label: str,
) -> dict[str, dict[object, ProfileReport]]:
    """``{engine name: {argument: report}}`` of ``run(engine, argument)``.

    Every engine's value comes from the one shared data pass, so each
    must equal the first engine's bit for bit; a mismatch raises,
    naming the argument through ``label.format(argument)``.
    """
    results: dict[str, dict[object, ProfileReport]] = {}
    reference: dict[object, object] = {}
    for engine in engines:
        per_argument = {}
        for argument in arguments:
            query = run(engine, argument)
            expected = reference.setdefault(argument, query.value)
            if query.value != expected:
                raise AssertionError(
                    f"{engine.name} disagrees on {label.format(argument)}: "
                    f"{query.value!r} != {expected!r}"
                )
            per_argument[argument] = profiler.profile(engine, query)
        results[engine.name] = per_argument
    return results
