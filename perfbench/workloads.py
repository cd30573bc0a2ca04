"""The benchmark's four workloads and the program set-up they share.

Every workload drives the public API only: ``build_workload`` for the
inputs, ``ReductionWorkflow``/``WorkflowConfig`` for the reduction,
``run_world`` for simulated MPI ranks, ``GeomCache`` and
``CheckpointManager``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: raw events per chunk of the out-of-core run files
CHUNK_EVENTS = 2000
#: tile-cache budget of the out-of-core workload (64 KiB)
MEMORY_BUDGET = 64 * 1024
#: steal-schedule seed of the elastic workload
STEAL_SEED = 0


def host_workers(wanted: int) -> int:
    """Worker count for this host: ``wanted``, never more than nproc."""
    return max(1, min(wanted, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(sample, n_files, chunk_events)`` of the synthesized campaign
    inputs: Tuple[str, int, Optional[int]]
    #: extra ``WorkflowConfig`` fields
    config: Dict[str, Any] = field(default_factory=dict)
    #: simulated MPI ranks (threads); 1 = plain single-process loop
    ranks: int = 1
    #: shard process-pool workers started at set-up; 0 = no pool
    pool_workers: int = 0
    #: fresh checkpoint directory for every reduction
    checkpoints: bool = False
    #: warm re-reductions after each cold one
    rereduce_repeats: int = 1
    #: single-process in-memory references this workload must equal
    #: bitwise, as ``(backend, per_run_fold)``; any one may match.
    #: Element-body paths fold MDNorm in the scalar order of ``serial``,
    #: batch paths in that of ``vectorized``.  Checkpointing campaigns
    #: sum per-run deltas in run order (the recovering loop's fold)
    #: instead of depositing straight into the totals.
    exact_refs: Tuple[Tuple[str, bool], ...] = (("vectorized", False),)

    def spec(self, seed: Optional[int] = None):
        from repro.bench.workloads import DEFAULT_SCALE, benzil_corelli, bixbyite_topaz

        sample, n_files, chunk_events = self.inputs
        make = benzil_corelli if sample == "benzil" else bixbyite_topaz
        spec = make(scale=DEFAULT_SCALE, n_files=n_files, chunk_events=chunk_events)
        return spec if seed is None else dataclasses.replace(spec, seed=int(seed))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="benzil_campaign",
            why="Benzil/CORELLI, all 36 small runs in one process: the paper's "
                "campaign shape, MDNorm-heavy with large per-run fixed costs",
            inputs=("benzil", 36, None),
            rereduce_repeats=3,
        ),
        Workload(
            name="bixbyite_dense",
            why="Bixbyite/TOPAZ, 4 runs of 140k events x 24 ops: BinMD-heavy "
                "(bin_index, scatter); the warm cache nears its 256 MB budget",
            inputs=("bixbyite", 4, None),
            rereduce_repeats=3,
        ),
        Workload(
            name="benzil_outofcore",
            why="Benzil, 4 chunked runs under a 64 KiB budget, 2 shards on the "
                "process pool: the only path through chunk decode, fan-out and replay",
            inputs=("benzil", 4, CHUNK_EVENTS),
            config={"memory_budget": MEMORY_BUDGET, "shards": 2},
            pool_workers=2,
            exact_refs=(("vectorized", False), ("serial", False)),
        ),
        Workload(
            name="benzil_elastic",
            why="Benzil, 5 runs on 2 simulated ranks with work stealing and "
                "per-run checkpoints: the only path through mpi.stealing and checkpoint",
            inputs=("benzil", 5, None),
            config={"executor": "stealing", "steal_seed": STEAL_SEED},
            ranks=2,
            checkpoints=True,
            exact_refs=(("vectorized", True), ("serial", True)),
        ),
        Workload(
            # in-process shards: the same record/replay and window decode
            # as on the pool, but one busy core, which keeps its timing
            # steady on a host whose speed drifts
            name="benzil_elastic_ooc",
            why="Benzil, 5 chunked runs under a 64 KiB budget on 2 stealing ranks, 2 "
                "in-process shards per stage, per-run checkpoints: every element-path layer",
            inputs=("benzil", 5, CHUNK_EVENTS),
            config={"executor": "stealing", "steal_seed": STEAL_SEED,
                    "memory_budget": MEMORY_BUDGET, "shards": 2, "shard_workers": 1},
            ranks=2,
            checkpoints=True,
            exact_refs=(("vectorized", True), ("serial", True)),
        ),
    )
}


@dataclass
class Program:
    """The set-up state a reduction needs: inputs, workflow, pool."""

    workload: Workload
    data: Any
    workflow: Any
    base_config: Any
    ranks: int
    pool_workers: int

    @property
    def n_events(self) -> int:
        return self.data.spec.n_events_per_file * self.data.spec.n_files


def set_up(workload: Workload, seed: Optional[int]) -> Program:
    """Program set-up before the first reduction: the workflow's flux,
    vanadium and instrument inputs, and the shard pool if the workload
    uses one.  Inputs must already be synthesized."""
    from repro.bench.workloads import build_workload
    from repro.core.workflow import ReductionWorkflow, WorkflowConfig

    data = build_workload(workload.spec(seed))
    pool_workers = host_workers(workload.pool_workers) if workload.pool_workers else 0
    config = dict(workload.config)
    if pool_workers:
        config["shard_workers"] = pool_workers
    base = WorkflowConfig(
        md_paths=data.md_paths,
        flux_path=data.flux_path,
        vanadium_path=data.vanadium_path,
        instrument=data.instrument,
        grid=data.grid,
        point_group=data.point_group,
        backend="vectorized",
        **config,
    )
    workflow = ReductionWorkflow(base)
    if pool_workers:
        from repro.jacc.workers import GLOBAL_POOL

        GLOBAL_POOL.executor(pool_workers)
    return Program(workload, data, workflow, base,
                   ranks=host_workers(workload.ranks), pool_workers=pool_workers)


def tear_down(program: Program) -> None:
    if program.pool_workers:
        from repro.jacc.workers import GLOBAL_POOL

        GLOBAL_POOL.dispose()


def reference(program: Program, backend: str, per_run_fold: bool = False):
    """Single-process, in-memory reduction of the same inputs on
    ``backend`` with the geometry cache off: the plain loop, or with
    ``per_run_fold`` the recovering loop (no checkpoint, no quarantine),
    which sums per-run deltas in run order."""
    from repro.core.checkpoint import RecoveryConfig
    from repro.core.geom_cache import DISABLED
    from repro.core.workflow import ReductionWorkflow

    config = dataclasses.replace(
        program.base_config, backend=backend, geom_cache=DISABLED, shards=None,
        shard_workers=None, memory_budget=None, executor=None,
        recovery=RecoveryConfig(quarantine=False) if per_run_fold else None,
    )
    return ReductionWorkflow(config).run()


def configure(program: Program, cache: Any, checkpoint_dir: Optional[str]) -> None:
    """Point the next reduction at ``cache`` (and a fresh checkpoint
    directory for workloads that checkpoint)."""
    from repro.core.checkpoint import CheckpointManager, RecoveryConfig, campaign_digest

    recovery = None
    if checkpoint_dir is not None:
        data = program.data
        digest = campaign_digest(impl="core", workload=program.workload.name,
                                 n_files=len(data.md_paths), grid_bins=list(data.grid.bins))
        recovery = RecoveryConfig(checkpoint=CheckpointManager(
            checkpoint_dir, config_digest=digest, grid=data.grid))
    program.workflow.config = dataclasses.replace(
        program.base_config, geom_cache=cache, recovery=recovery)


def run(program: Program) -> Tuple[Any, list]:
    """One campaign reduction as configured; returns the root result and
    every rank's stage timings.  The caller times it."""
    workflow = program.workflow
    if program.ranks > 1:
        from repro.mpi.runner import run_world

        results = run_world(program.ranks, lambda comm: workflow.run(comm))
        return results[0], [r.timings for r in results]
    result = workflow.run()
    return result, [result.timings]


def stage_seconds(timings: list) -> Dict[str, float]:
    """Paper stage rows summed over ranks (thread-seconds)."""
    out = {}
    for stage in ("UpdateEvents", "MDNorm", "BinMD"):
        out[stage] = sum(t.stages[stage].elapsed for t in timings if stage in t.stages)
    return out
