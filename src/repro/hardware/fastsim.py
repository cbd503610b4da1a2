"""Batch ("vector-at-a-time") kernels for the structural simulators.

The paper's own headline lesson -- vector-at-a-time execution amortises
per-tuple interpretation overhead (Tectorwise vs. the interpreters) --
applies to our measurement substrate too: the reference
:meth:`repro.hardware.hierarchy.CacheHierarchy.replay` and
:meth:`repro.hardware.branch.GSharePredictor.run` are tuple-at-a-time
Python loops.  This module provides batch implementations that consume
whole address/outcome arrays per call:

- :func:`replay_hierarchy` -- batch replay of an address stream through
  the three-level hierarchy.  Without prefetchers the per-set LRU
  simulations are fully vectorised across sets (a time-stepped numpy
  kernel over one matrix per level); with prefetchers enabled (whose
  next-line/streamer installs cross set boundaries mid-stream and
  therefore serialise the per-set state) a fused single-pass kernel
  inlines all three levels and the prefetchers into one tight loop over
  a pre-computed line array.
- :func:`gshare_run_batch` -- exact batch replay of a branch outcome
  stream: histories and table indices are computed vectorised, and the
  independent 2-bit counters are advanced per table entry (closed form
  for constant-outcome entries, a time-stepped numpy kernel for the
  rest).

Both kernels leave the simulator objects in a state equivalent to the
reference event loop (identical reported statistics, identical future
decisions) and are cross-checked against the reference models in
``tests/hardware/test_fastsim_equivalence.py``.  Setting
``REPRO_REFERENCE_SIM=1`` disables them and restores the per-event
reference path, which remains the oracle.

Note on float accumulation: the reference accumulates per-access
latencies one by one while the batch kernels compute ``count x
latency`` sums.  Both are exact (hence identical) whenever the cache
latencies are integer-valued floats, which holds for the modelled
Broadwell/Skylake servers.
"""

from __future__ import annotations

import numpy as np

#: Below this many events the batch kernels gain nothing; the dispatch
#: helpers fall back to the reference loops.
MIN_BATCH_EVENTS = 32


# ----------------------------------------------------------------------
# Set-associative LRU level kernel (vectorised across sets)
# ----------------------------------------------------------------------

def _simulate_level(cache, lines: np.ndarray):
    """Exact batch demand-access simulation of one cache level.

    ``lines`` is the level's demand line stream in time order.  Returns
    ``(hits, prefetch_hits, evictions)`` where ``hits`` is a boolean
    array aligned with ``lines``.  The cache's set contents are updated
    in place (LRU order preserved); counters are NOT updated here so
    the caller can account hierarchy-level statistics in one place.

    The kernel groups accesses by set (sets are independent without
    prefetchers), seeds one state row per touched set from the existing
    contents, and advances all sets simultaneously one access at a time
    -- the Python-level iteration count is the *maximum accesses per
    set*, not the stream length.
    """
    n = len(lines)
    if n == 0:
        empty = np.zeros(0, dtype=bool)
        return empty, empty, 0
    ways = cache._ways
    n_sets = cache._n_sets
    set_ids = lines % n_sets

    # Group positions by set, preserving time order within each set.
    order = np.argsort(set_ids, kind="stable")
    sorted_sets = set_ids[order]
    sorted_lines = lines[order]

    # Collapse runs of repeated accesses to the same line within a
    # set's subsequence: after the first access of a run the line is
    # resident and MRU, so the repeats are guaranteed hits that leave
    # the set state unchanged.  (Stride-under-line-size streams shrink
    # ~8x here, which bounds the time-step loop below.)
    first_in_run = np.ones(n, dtype=bool)
    first_in_run[1:] = (sorted_sets[1:] != sorted_sets[:-1]) | (
        sorted_lines[1:] != sorted_lines[:-1]
    )
    run_heads = np.flatnonzero(first_in_run)
    c_sets = sorted_sets[run_heads]
    c_lines = sorted_lines[run_heads]
    m = len(run_heads)

    boundaries = np.flatnonzero(np.diff(c_sets)) + 1
    group_starts = np.concatenate(([0], boundaries))
    group_ends = np.concatenate((boundaries, [m]))
    touched = c_sets[group_starts]
    n_groups = len(touched)
    lengths = group_ends - group_starts

    # Per-group state: the ways of each touched set.  Empty ways hold
    # line -1 with tick -1 (older than anything, so they are filled
    # first, matching the reference's install-before-evict behaviour).
    way_lines = np.full((n_groups, ways), -1, dtype=np.int64)
    way_ticks = np.full((n_groups, ways), -1, dtype=np.int64)
    way_pref = np.zeros((n_groups, ways), dtype=bool)
    for g, set_id in enumerate(touched):
        entries = cache._sets[set_id]
        for w, (line, (tick, prefetched)) in enumerate(
            sorted(entries.items(), key=lambda item: item[1][0])
        ):
            way_lines[g, w] = line
            way_ticks[g, w] = w  # relative LRU order is all that matters
            way_pref[g, w] = prefetched

    # Access matrix coordinates: group row + step column.
    rows = np.repeat(np.arange(n_groups), lengths)
    cols = np.arange(m) - np.repeat(group_starts, lengths)
    max_len = int(lengths.max()) if n_groups else 0
    line_matrix = np.full((n_groups, max_len), -1, dtype=np.int64)
    line_matrix[rows, cols] = c_lines

    hits_matrix = np.zeros((n_groups, max_len), dtype=bool)
    pref_hits_matrix = np.zeros((n_groups, max_len), dtype=bool)
    evictions = 0
    group_range = np.arange(n_groups)
    for step in range(max_len):
        active = lengths > step
        current = line_matrix[:, step]
        match = way_lines == current[:, None]
        hit = match.any(axis=1) & active
        hits_matrix[:, step] = hit
        tick = ways + step  # strictly newer than every seeded tick
        if hit.any():
            hit_way = np.argmax(match, axis=1)
            pref_hit = hit & way_pref[group_range, hit_way]
            pref_hits_matrix[:, step] = pref_hit
            way_pref[group_range[pref_hit], hit_way[pref_hit]] = False
            way_ticks[group_range[hit], hit_way[hit]] = tick
        miss = active & ~hit
        if miss.any():
            victim = np.argmin(way_ticks, axis=1)
            miss_groups = group_range[miss]
            victim_ways = victim[miss]
            evictions += int(
                np.count_nonzero(way_lines[miss_groups, victim_ways] >= 0)
            )
            way_lines[miss_groups, victim_ways] = current[miss]
            way_ticks[miss_groups, victim_ways] = tick
            way_pref[miss_groups, victim_ways] = False

    # Scatter results back to stream order; collapsed repeats are hits.
    hits_sorted = np.ones(n, dtype=bool)
    hits_sorted[run_heads] = hits_matrix[rows, cols]
    hits = np.zeros(n, dtype=bool)
    hits[order] = hits_sorted
    pref_sorted = np.zeros(n, dtype=bool)
    pref_sorted[run_heads] = pref_hits_matrix[rows, cols]
    prefetch_hits = np.zeros(n, dtype=bool)
    prefetch_hits[order] = pref_sorted

    # Write the final contents back, preserving relative LRU order and
    # keeping every stored tick below the cache's future tick values.
    base = cache._tick + 1
    for g, set_id in enumerate(touched):
        entries = {}
        occupied = np.flatnonzero(way_lines[g] >= 0)
        for rank, w in enumerate(occupied[np.argsort(way_ticks[g][occupied])]):
            entries[int(way_lines[g, w])] = [base + rank, bool(way_pref[g, w])]
        cache._sets[set_id] = entries
    cache._tick += n + ways

    return hits, prefetch_hits, evictions


def _account_level(cache, n_accesses: int, hits: np.ndarray,
                   prefetch_hits: np.ndarray, evictions: int) -> int:
    """Fold one level's batch outcome into its CacheStats; returns the
    number of hits."""
    n_hits = int(np.count_nonzero(hits))
    stats = cache.stats
    stats.accesses += n_accesses
    stats.hits += n_hits
    stats.misses += n_accesses - n_hits
    stats.prefetch_hits += int(np.count_nonzero(prefetch_hits))
    stats.evictions += evictions
    return n_hits


def _replay_vectorized(hierarchy, lines: np.ndarray) -> None:
    """Batch replay without prefetchers: the three levels are chained
    vectorised kernels, each consuming the previous level's miss
    subsequence in stream order."""
    spec = hierarchy.spec
    n = len(lines)

    l1_hits, l1_pref, l1_evict = _simulate_level(hierarchy.l1, lines)
    _account_level(hierarchy.l1, n, l1_hits, l1_pref, l1_evict)

    l2_lines = lines[~l1_hits]
    l2_hits, l2_pref, l2_evict = _simulate_level(hierarchy.l2, l2_lines)
    _account_level(hierarchy.l2, len(l2_lines), l2_hits, l2_pref, l2_evict)

    l3_lines = l2_lines[~l2_hits]
    l3_hits, l3_pref, l3_evict = _simulate_level(hierarchy.l3, l3_lines)
    _account_level(hierarchy.l3, len(l3_lines), l3_hits, l3_pref, l3_evict)

    n_l1 = int(np.count_nonzero(l1_hits))
    n_l2 = int(np.count_nonzero(l2_hits))
    n_l3 = int(np.count_nonzero(l3_hits))
    n_mem = len(l3_lines) - n_l3

    stats = hierarchy.stats
    stats.accesses += n
    stats.l1_hits += n_l1
    stats.l2_hits += n_l2
    stats.l3_hits += n_l3
    stats.memory_accesses += n_mem
    stats.lines_from_memory += n_mem
    stats.total_latency_cycles += (
        n * spec.l1_access_cycles
        + (n - n_l1) * spec.l1d.miss_latency_cycles
        + len(l3_lines) * spec.l2.miss_latency_cycles
        + n_mem * spec.l3.miss_latency_cycles
    )


# ----------------------------------------------------------------------
# Fused single-pass hierarchy kernel (prefetchers enabled)
# ----------------------------------------------------------------------

def _replay_fused(hierarchy, lines: np.ndarray) -> None:
    """Batch replay with prefetchers: one tight loop over a
    pre-computed line array with all three levels, the next-line
    prefetchers and the streamers inlined as local state.

    Prefetch installs cross set boundaries mid-stream (line ``L`` in
    set ``s`` installs ``L+1`` into set ``s+1``), so the per-set
    decoupling of the vectorised kernel does not apply; this kernel
    instead removes the per-event method-dispatch and dataclass
    bookkeeping of the reference path while replaying the identical
    event sequence on the identical structures.
    """
    from repro.hardware.prefetcher import (
        LINES_PER_PAGE,
        NextLinePrefetcher,
        StreamerPrefetcher,
        _StreamTracker,
    )

    spec = hierarchy.spec
    l1, l2, l3 = hierarchy.l1, hierarchy.l2, hierarchy.l3
    l1_sets, l2_sets, l3_sets = l1._sets, l2._sets, l3._sets
    l1_nsets, l2_nsets, l3_nsets = l1._n_sets, l2._n_sets, l3._n_sets
    l1_ways, l2_ways, l3_ways = l1._ways, l2._ways, l3._ways
    tick1, tick2, tick3 = l1._tick, l2._tick, l3._tick

    # Per-level counter locals (folded back into the stats at the end).
    h1 = m1 = ph1 = pi1 = ev1 = 0
    h2 = m2 = ph2 = pi2 = ev2 = 0
    h3 = m3 = ph3 = pi3 = ev3 = 0

    l1_lat = spec.l1_access_cycles
    l2_lat = l1_lat + spec.l1d.miss_latency_cycles
    l3_lat = l2_lat + spec.l2.miss_latency_cycles
    mem_lat = l3_lat + spec.l3.miss_latency_cycles
    n_mem = 0
    latency_total = 0.0

    # Prefetcher state, keyed by (level_cache, kind).
    next_line = []  # (prefetcher, sets, n_sets, ways, level)
    streamers = []  # (prefetcher, sets, n_sets, ways, degree, trackers, max_trackers, level)
    for level, prefetchers in ((1, hierarchy._l1_prefetchers), (2, hierarchy._l2_prefetchers)):
        for prefetcher in prefetchers:
            target = prefetcher.target
            if isinstance(prefetcher, NextLinePrefetcher):
                next_line.append(
                    (prefetcher, target._sets, target._n_sets, target._ways, level)
                )
            elif isinstance(prefetcher, StreamerPrefetcher):
                streamers.append(
                    (prefetcher, target._sets, target._n_sets, target._ways,
                     prefetcher.degree, prefetcher._trackers,
                     prefetcher.max_trackers, level)
                )
            else:  # third-party prefetcher: no fused path for it
                raise NotImplementedError(type(prefetcher).__name__)

    def install(sets, n_sets, ways, line, tick, prefetched):
        """Inline of SetAssociativeCache._install; returns evictions."""
        cache_set = sets[line % n_sets]
        evicted = 0
        if len(cache_set) >= ways:
            victim = min(cache_set, key=lambda entry: cache_set[entry][0])
            del cache_set[victim]
            evicted = 1
        cache_set[line] = [tick, prefetched]
        return evicted

    for line in lines.tolist():
        # ---- L1 demand access -----------------------------------------
        tick1 += 1
        entry = l1_sets[line % l1_nsets].get(line)
        if entry is not None:
            if entry[1]:
                ph1 += 1
                entry[1] = False
            entry[0] = tick1
            h1 += 1
            l1_hit = True
        else:
            m1 += 1
            ev1 += install(l1_sets, l1_nsets, l1_ways, line, tick1, False)
            l1_hit = False

        # ---- L1 prefetchers observe the demand stream -----------------
        for prefetcher, sets, n_sets, ways, level in next_line:
            if level != 1 or l1_hit:
                continue
            candidate = line + 1
            if candidate not in sets[candidate % n_sets]:
                tick1 += 1
                pi1 += 1
                ev1 += install(sets, n_sets, ways, candidate, tick1, True)
                prefetcher.issued += 1
        for (prefetcher, sets, n_sets, ways, degree, trackers,
             max_trackers, level) in streamers:
            if level != 1:
                continue
            page = line // LINES_PER_PAGE
            tracker = trackers.get(page)
            if tracker is None:
                if len(trackers) >= max_trackers:
                    trackers.pop(next(iter(trackers)))
                trackers[page] = _StreamTracker(page=page, last_line=line)
                continue
            step = line - tracker.last_line
            if step == 0:
                continue
            direction = 1 if step > 0 else -1
            if direction == tracker.direction:
                tracker.confidence = min(tracker.confidence + 1, 4)
            else:
                tracker.direction = direction
                tracker.confidence = 1
            tracker.last_line = line
            if tracker.confidence >= 2:
                for distance in range(1, degree + 1):
                    candidate = line + direction * distance
                    if candidate // LINES_PER_PAGE != page:
                        break
                    if candidate not in sets[candidate % n_sets]:
                        tick1 += 1
                        pi1 += 1
                        ev1 += install(sets, n_sets, ways, candidate, tick1, True)
                        prefetcher.issued += 1

        if l1_hit:
            latency_total += l1_lat
            continue

        # ---- L2 demand access -----------------------------------------
        tick2 += 1
        entry = l2_sets[line % l2_nsets].get(line)
        if entry is not None:
            if entry[1]:
                ph2 += 1
                entry[1] = False
            entry[0] = tick2
            h2 += 1
            l2_hit = True
        else:
            m2 += 1
            ev2 += install(l2_sets, l2_nsets, l2_ways, line, tick2, False)
            l2_hit = False

        # ---- L2 prefetchers -------------------------------------------
        for prefetcher, sets, n_sets, ways, level in next_line:
            if level != 2 or l2_hit:
                continue
            candidate = line + 1
            if candidate not in sets[candidate % n_sets]:
                tick2 += 1
                pi2 += 1
                ev2 += install(sets, n_sets, ways, candidate, tick2, True)
                prefetcher.issued += 1
        for (prefetcher, sets, n_sets, ways, degree, trackers,
             max_trackers, level) in streamers:
            if level != 2:
                continue
            page = line // LINES_PER_PAGE
            tracker = trackers.get(page)
            if tracker is None:
                if len(trackers) >= max_trackers:
                    trackers.pop(next(iter(trackers)))
                trackers[page] = _StreamTracker(page=page, last_line=line)
                continue
            step = line - tracker.last_line
            if step == 0:
                continue
            direction = 1 if step > 0 else -1
            if direction == tracker.direction:
                tracker.confidence = min(tracker.confidence + 1, 4)
            else:
                tracker.direction = direction
                tracker.confidence = 1
            tracker.last_line = line
            if tracker.confidence >= 2:
                for distance in range(1, degree + 1):
                    candidate = line + direction * distance
                    if candidate // LINES_PER_PAGE != page:
                        break
                    if candidate not in sets[candidate % n_sets]:
                        tick2 += 1
                        pi2 += 1
                        ev2 += install(sets, n_sets, ways, candidate, tick2, True)
                        prefetcher.issued += 1

        if l2_hit:
            latency_total += l2_lat
            continue

        # ---- L3 demand access -----------------------------------------
        tick3 += 1
        entry = l3_sets[line % l3_nsets].get(line)
        if entry is not None:
            if entry[1]:
                ph3 += 1
                entry[1] = False
            entry[0] = tick3
            h3 += 1
            latency_total += l3_lat
        else:
            m3 += 1
            ev3 += install(l3_sets, l3_nsets, l3_ways, line, tick3, False)
            n_mem += 1
            latency_total += mem_lat

    l1._tick, l2._tick, l3._tick = tick1, tick2, tick3
    for cache, hits, misses, pref_hits, pref_inserts, evictions in (
        (l1, h1, m1, ph1, pi1, ev1),
        (l2, h2, m2, ph2, pi2, ev2),
        (l3, h3, m3, ph3, pi3, ev3),
    ):
        stats = cache.stats
        stats.accesses += hits + misses
        stats.hits += hits
        stats.misses += misses
        stats.prefetch_hits += pref_hits
        stats.prefetch_inserts += pref_inserts
        stats.evictions += evictions

    stats = hierarchy.stats
    stats.accesses += len(lines)
    stats.l1_hits += h1
    stats.l2_hits += h2
    stats.l3_hits += h3
    stats.memory_accesses += n_mem
    stats.lines_from_memory += n_mem
    stats.total_latency_cycles += latency_total


def replay_hierarchy(hierarchy, addresses: np.ndarray) -> None:
    """Batch replay of a byte-address stream through a hierarchy.

    Chooses the fully vectorised per-set kernel when no prefetchers are
    configured and the fused single-pass kernel otherwise.  Statistics
    and cache contents end up equivalent to the reference per-event
    loop.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    lines = addresses >> hierarchy.l1._line_shift
    if hierarchy._l1_prefetchers or hierarchy._l2_prefetchers:
        _replay_fused(hierarchy, lines)
    else:
        _replay_vectorized(hierarchy, lines)


# ----------------------------------------------------------------------
# Gshare batch kernel
# ----------------------------------------------------------------------

def _histories(initial: int, history_bits: int, outcomes: np.ndarray) -> np.ndarray:
    """Global-history register value before each branch, vectorised.

    The register before branch ``t`` holds the last ``history_bits``
    events of the sequence ``[initial history bits, outcomes[:t]]``,
    most recent in the LSB.
    """
    n = len(outcomes)
    if history_bits == 0:
        return np.zeros(n, dtype=np.int64)
    bits = np.empty(history_bits + n, dtype=np.int64)
    for j in range(history_bits):
        bits[j] = (initial >> (history_bits - 1 - j)) & 1
    bits[history_bits:] = outcomes
    windows = np.lib.stride_tricks.sliding_window_view(bits, history_bits)[:n]
    weights = 1 << np.arange(history_bits - 1, -1, -1, dtype=np.int64)
    return windows @ weights


def gshare_run_batch(predictor, pc: int, outcomes: np.ndarray) -> int:
    """Exact batch replay of one static branch's outcome stream.

    Updates ``predictor`` state in place (table counters, history,
    prediction counts) exactly as the per-event loop would, and returns
    the number of mispredictions added.

    The per-entry 2-bit counters are independent once the table index
    sequence is known, so the stream is grouped by index: entries whose
    outcome subsequence is constant are advanced in closed form, the
    rest advance one step per iteration of a numpy kernel vectorised
    across entries.
    """
    outcomes = np.asarray(outcomes, dtype=bool)
    n = len(outcomes)
    if n == 0:
        return 0
    histories = _histories(predictor._history, predictor.history_bits, outcomes)
    indices = (pc ^ (histories & predictor._history_mask)) & predictor._mask

    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    boundaries = np.flatnonzero(np.diff(sorted_indices)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))

    table = predictor._table
    mispredictions = 0
    mixed_entries = []  # (table_index, outcome_subsequence)
    for start, end in zip(starts, ends):
        index = int(sorted_indices[start])
        outs = outcomes[order[start:end]]
        state = int(table[index])
        length = end - start
        taken_count = int(np.count_nonzero(outs))
        if taken_count == length:  # constant taken
            mispredictions += min(length, max(0, 2 - state))
            table[index] = min(3, state + length)
        elif taken_count == 0:  # constant not taken
            mispredictions += min(length, max(0, state - 1))
            table[index] = max(0, state - length)
        else:
            mixed_entries.append((index, outs))

    if mixed_entries:
        lengths = np.array([len(outs) for _, outs in mixed_entries])
        n_entries = len(mixed_entries)
        max_len = int(lengths.max())
        matrix = np.zeros((n_entries, max_len), dtype=bool)
        for g, (_, outs) in enumerate(mixed_entries):
            matrix[g, : len(outs)] = outs
        states = np.array([table[index] for index, _ in mixed_entries], dtype=np.int16)
        for step in range(max_len):
            active = lengths > step
            outs = matrix[:, step]
            predictions = states >= 2
            mispredictions += int(np.count_nonzero(active & (predictions != outs)))
            up = active & outs
            down = active & ~outs
            states = np.where(up, np.minimum(states + 1, 3),
                              np.where(down, np.maximum(states - 1, 0), states))
        for g, (index, _) in enumerate(mixed_entries):
            table[index] = states[g]

    if predictor.history_bits:
        # Final history: last ``history_bits`` events of [initial, outcomes].
        take = min(n, predictor.history_bits)
        packed = 0
        for bit in outcomes[n - take:]:
            packed = (packed << 1) | int(bit)
        predictor._history = int(
            ((predictor._history << take) | packed) & predictor._history_mask
        )

    predictor.predictions += n
    predictor.mispredictions += int(mispredictions)
    return int(mispredictions)
