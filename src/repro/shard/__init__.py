"""repro.shard -- sharded scatter-gather execution across node processes.

The single-node stack already has every ingredient distribution needs:
a JSON-lines TCP protocol (:mod:`repro.serve`), a spawn worker pool
over one shm segment per database (:mod:`repro.core.parallel`,
:mod:`repro.storage.shm`), and exact partial merging
(:func:`repro.engines.morsel.merge_states`, ExactSum) that makes
results independent of how rows are partitioned.  This package wires
those pieces across process boundaries:

- :mod:`repro.shard.partition` -- hash/range sharding of the fact
  table into per-shard databases (dimensions replicated, parent code
  spaces preserved so compiled group keys survive);
- :mod:`repro.shard.cluster` -- N shard nodes x R replicas, each node
  a :class:`~repro.serve.service.QueryService` over its own shard
  (process nodes own their own shm segment and worker pool);
- :mod:`repro.shard.coordinator` -- lowers a query once, scatters the
  bound call to every shard, gathers wire-encoded partials and
  finishes them with the same exact mergers a single node uses, with
  replica failover under a bounded backoff;
- :mod:`repro.shard.wire` -- checksummed partial-result codec;
- :mod:`repro.shard.faults` -- deterministic fault injection (kill /
  drop / delay / corrupt) for the failover tests.

Shard nodes have no executor of their own: a node's ``partial`` op is
:func:`repro.core.parallel.run_call` with ``finish=False`` -- the same
routing, zone-map pruning and dispatch as a single node, over the
shard's own rows, stopping before the finisher so the coordinator can
merge exactly.
"""

from repro.shard.cluster import ShardCluster
from repro.shard.coordinator import (
    AllReplicasDown,
    Coordinator,
    CoordinatorConfig,
    ShardError,
)
from repro.shard.faults import FaultPlan
from repro.shard.partition import build_shards, shard_assignment, shard_database
from repro.shard.wire import CorruptPartial

__all__ = [
    "AllReplicasDown",
    "Coordinator",
    "CoordinatorConfig",
    "CorruptPartial",
    "FaultPlan",
    "ShardCluster",
    "ShardError",
    "build_shards",
    "shard_assignment",
    "shard_database",
]
