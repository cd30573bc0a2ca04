"""Algorithm 1: the differential scattering cross-section.

::

    start, end <- range(MPI_Rank, MPI_Size)
    0 <- mdnorm, binmd
    for i = start to end do
        event_data <- LOAD events, rotations, charge, ...
        mdnorm += MDNorm(events)   <- CPU/GPU
        binmd  += BinMD(events)    <- CPU/GPU
    end for
    cross_section <- MPI_Reduce(binmd) / MPI_Reduce(mdnorm)

Each rank owns private histograms; ``Reduce`` combines them on the
root, which performs the guarded division.  Per-stage wall-clock is
accumulated into a :class:`~repro.util.timers.StageTimings` using the
paper's stage names (UpdateEvents / MDNorm / BinMD / Total).

There is one loop.  Each run is computed into fresh scratch histograms
and its delta is added to the rank's totals in ascending run order
(:class:`RunFold`); resilience — retry, quarantine, checkpoint/resume,
cancellation, crash takeover — is the failure policy around that loop
(``recovery``), and ``recovery=None`` is its no-op policy.  The
per-run pieces below (load, dispositions, fold, result assembly) are
shared with the work-stealing executor (:mod:`repro.mpi.stealing`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.binmd import bin_events
from repro.core.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    RecoveryConfig,
    RunDelta,
)
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import MDEventWorkspace
from repro.core.mdnorm import mdnorm
from repro.core.sharding import ShardConfig, sharded_binmd, sharded_mdnorm
from repro.crystal.symmetry import PointGroup
from repro.mpi import SUM, Comm, SequentialComm, balanced_rank_runs, rank_range
from repro.nexus.corrections import FluxSpectrum
from repro.util import faults as _faults
from repro.util import monitor as _monitor
from repro.util import trace as _trace
from repro.util import cancel as _cancel
from repro.util.cancel import CancelledError
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError, require


@dataclass
class CrossSectionResult:
    """Outcome of Algorithm 1 on the root rank.

    Non-root ranks receive ``cross_section=None`` but still carry their
    local timings.
    """

    cross_section: Optional[Hist3]
    binmd: Optional[Hist3]
    mdnorm: Optional[Hist3]
    timings: StageTimings
    n_runs: int
    backend: str
    #: implementation-specific diagnostics (e.g. device transfer bytes)
    extras: Optional[dict] = None
    #: True when runs were quarantined — the result is built from the
    #: surviving runs only (recovery mode)
    degraded: bool = False
    #: per-run outcome (recovery mode, root rank): run index ->
    #: ``{"status": done|resumed|quarantined|lost, "attempts", "rank"}``
    dispositions: Optional[Dict[int, Dict[str, Any]]] = None

    @property
    def is_root(self) -> bool:
        return self.cross_section is not None

    @property
    def quarantined_runs(self) -> Tuple[int, ...]:
        if not self.dispositions:
            return ()
        return tuple(sorted(
            i for i, d in self.dispositions.items()
            if d.get("status") == "quarantined"
        ))


#: campaign executors: the fixed rank-block plan of
#: :func:`compute_cross_section`, or elastic work stealing
#: (:mod:`repro.mpi.stealing`)
EXECUTORS = ("static", "stealing")


def check_executor(name: Optional[str]) -> None:
    """Reject an executor name outside :data:`EXECUTORS` (None = static)."""
    if name is not None and name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; available: {', '.join(EXECUTORS)}"
        )


def n_events(ws: MDEventWorkspace) -> int:
    """Raw event count of one run's workspace (monitor accounting).

    Prefers the ``n_events`` surface shared by :class:`EventTable` and
    the out-of-core :class:`~repro.nexus.tiles.LazyEventTable` — the
    ``np.asarray`` fallback would *materialize* a lazy table.
    """
    n = getattr(ws.events, "n_events", None)
    if n is not None:
        return int(n)
    try:
        return int(ws.events.data.shape[0])
    except AttributeError:  # pragma: no cover - bare-array workspaces
        return int(np.asarray(ws.events).shape[0])


def _is_lazy(events: Any) -> bool:
    """Out-of-core event table? (duck-typed on the window/chunk surface
    to avoid importing the nexus tile layer at module import time)."""
    return hasattr(events, "window") and hasattr(events, "chunk_bounds")


#: degenerate fan-out for out-of-core runs reduced without ``--shards``:
#: the shard log/replay machinery still cuts BinMD into budget-capped,
#: chunk-aligned windows (bit-identical to the in-memory ``vectorized``
#: BinMD for every cut), it just does so in-process with no pool
_OOC_FALLBACK = ShardConfig(n_shards=1, workers=1)


def _rank_block(
    n_runs: int, comm: Comm, run_weights: Optional[Sequence[float]]
) -> Tuple[int, int]:
    """This rank's contiguous run block — weight-balanced when the run
    manifest supplies per-run event counts, classic equal-count block
    otherwise (the two coincide for uniform weights)."""
    if run_weights is None:
        return rank_range(n_runs, comm.rank, comm.size)
    require(len(run_weights) == n_runs,
            f"run_weights has {len(run_weights)} entries for {n_runs} runs")
    return balanced_rank_runs(run_weights, comm.size)[comm.rank]


def _shard_beat(
    monitor: Any, comm: Comm, i: int, stage: str
) -> Optional[Callable[[int, int], None]]:
    """Per-shard heartbeat callback for the live monitor (PR 4), so a
    wedged shard ages a ``run:<i>/<stage>/shard:<s>`` site rather than
    hiding behind the run-level heartbeat."""
    if not monitor.enabled:
        return None

    def beat(s: int, n_shards: int) -> None:
        monitor.heartbeat(
            comm.rank, site=f"run:{i}/{stage}/shard:{s + 1}of{n_shards}"
        )

    return beat


# ---------------------------------------------------------------------------
# per-run pieces (shared with the work-stealing executor)
# ---------------------------------------------------------------------------

def load_checked(
    load_run: Callable[[int], MDEventWorkspace], i: int, timings: StageTimings
) -> MDEventWorkspace:
    """The timed ``UpdateEvents`` stage for run ``i``; the workspace must
    carry the UB matrix Algorithm 1 transforms with."""
    with timings.stage("UpdateEvents"):
        ws = load_run(i)
    if ws.ub_matrix is None:
        raise ValidationError(
            f"run index {i} carries no UB matrix; Algorithm 1 needs it"
        )
    return ws


def call_run(
    attempt: Callable[[int], Any],
    *,
    site: str,
    recovery: Optional[RecoveryConfig],
    on_retry: Callable[[BaseException, int], None],
) -> Any:
    """One per-run unit of work under the campaign's failure policy.

    ``recovery=None`` is the no-op policy: ``attempt(1)`` is called
    once, directly — outside :func:`repro.util.faults.retry_call`, so
    ``in_recovery()`` stays false, recovery-scoped faults never fire and
    the original exception propagates unchanged.  Otherwise transient
    failures are retried with backoff (``on_retry`` runs before each
    re-attempt), and :class:`~repro.util.faults.RetryExhaustedError`
    reports a spent budget.
    """
    if recovery is None:
        return attempt(1)
    # deadline propagation: a campaign deadline caps every per-run
    # retry backoff, so retries never sleep past the cancel token
    retry_kwargs: Dict[str, Any] = {}
    if recovery.cancel is not None and recovery.cancel.deadline is not None:
        retry_kwargs["deadline"] = recovery.cancel.deadline
        retry_kwargs["clock"] = recovery.cancel.clock
    return _faults.retry_call(
        attempt,
        site=site,
        policy=recovery.retry,
        retryable=recovery.retryable,
        on_retry=on_retry,
        **retry_kwargs,
    )


def resume_disposition(
    ckpt: CheckpointManager,
    i: int,
    grid: HKLGrid,
    *,
    rank: int,
    cache: GeomCache,
    monitor: Any,
) -> Optional[Dict[str, Any]]:
    """Run ``i``'s disposition when a resumed checkpoint already settles
    it: durably quarantined, or completed with a digest-verified delta.
    None means the run must be computed (not checkpointed, or its delta
    is corrupt)."""
    if ckpt.is_quarantined(i):
        if monitor.enabled:
            monitor.record_quarantine(rank, i)
        return {"status": "quarantined", "rank": int(rank), "resumed": True}
    if not ckpt.has_run(i):
        return None
    tracer = _trace.active_tracer()
    try:
        ckpt.load_run(i, grid)
    except CheckpointCorruptError:
        tracer.count("checkpoint.corrupt")
        cache.invalidate(f"run:{i}")
        return None
    rec = ckpt.run_record(i) or {}
    tracer.count("checkpoint.resumed")
    if monitor.enabled:
        monitor.record_resume(rank, i)
    return {"status": "resumed", "rank": int(rank),
            "attempts": int(rec.get("attempts", 1))}


def quarantine_disposition(
    ckpt: Optional[CheckpointManager],
    i: int,
    exc: _faults.RetryExhaustedError,
    *,
    rank: int,
    monitor: Any,
) -> Dict[str, Any]:
    """Quarantine run ``i`` after ``exc`` spent its retry budget: the
    disposition is recorded durably (with a checkpoint manager), and the
    campaign completes *degraded* on the survivors."""
    reason = repr(exc.last)
    if ckpt is not None:
        ckpt.quarantine_run(i, reason)
    _trace.active_tracer().count("quarantine.runs")
    if monitor.enabled:
        monitor.record_quarantine(rank, i)
    return {"status": "quarantined", "rank": int(rank),
            "attempts": int(exc.attempts), "reason": reason}


def done_disposition(
    ckpt: Optional[CheckpointManager],
    i: int,
    binmd: Hist3,
    mdnorm: Hist3,
    *,
    attempts: int,
    rank: int,
    monitor: Any,
    events: int,
) -> Dict[str, Any]:
    """Run ``i`` computed: persist its delta (with a checkpoint manager)
    and report it to the monitor."""
    if ckpt is not None:
        ckpt.save_run(i, binmd, mdnorm, attempts=attempts, rank=rank)
    if monitor.enabled:
        monitor.run_completed(rank, i, events=float(events))
    return {"status": "done", "rank": int(rank), "attempts": int(attempts)}


class RunFold:
    """The campaign's one fold: per-run deltas summed in the order they
    are added.  Callers add in ascending run order, so the float
    association — and with it every bit of the result — is independent
    of rank layout, steal schedule, crashes and resume points."""

    def __init__(self, grid: HKLGrid) -> None:
        self.binmd = Hist3(grid, track_errors=True)
        self.mdnorm = Hist3(grid)

    @classmethod
    def of(cls, grid: HKLGrid, deltas: Iterable[RunDelta]) -> "RunFold":
        fold = cls(grid)
        for delta in deltas:
            fold.add(delta)
        return fold

    def add(self, delta: RunDelta) -> None:
        self.binmd.signal += delta.binmd_signal
        if delta.binmd_error_sq is None:
            # one run without errors leaves the total without them
            self.binmd.error_sq = None
        elif self.binmd.error_sq is not None:
            self.binmd.error_sq += delta.binmd_error_sq
        self.mdnorm.signal += delta.mdnorm_signal


def fold_checkpoint(ckpt: CheckpointManager, grid: HKLGrid) -> RunFold:
    """Rebuild the totals from every completed run's durable delta, then
    mark the campaign complete."""
    fold = RunFold.of(grid, (ckpt.load_run(i, grid)
                             for i in ckpt.completed_runs()))
    ckpt.mark_campaign_complete(
        f"runs={len(ckpt.completed_runs())} "
        f"quarantined={len(ckpt.quarantined_runs())}\n"
    )
    return fold


def non_root_result(
    timings: StageTimings, n_runs: int, backend: Optional[str]
) -> CrossSectionResult:
    """What every rank but the (effective) root returns."""
    return CrossSectionResult(
        cross_section=None, binmd=None, mdnorm=None,
        timings=timings, n_runs=n_runs, backend=backend or "default",
    )


def root_result(
    binmd: Hist3,
    mdnorm: Hist3,
    cross: Hist3,
    *,
    timings: StageTimings,
    n_runs: int,
    backend: Optional[str],
    comm: Comm,
    cache: GeomCache,
    monitor: Any,
    dispositions: Optional[Dict[int, Dict[str, Any]]],
    extras: Optional[Dict[str, Any]] = None,
) -> CrossSectionResult:
    """The root rank's result.  ``dispositions`` (None under the no-op
    failure policy) adds ``extras["recovery"]`` and marks a campaign
    with quarantined runs as degraded."""
    if monitor.enabled:
        monitor.finish_campaign()
    extras = dict(extras or {})
    quarantined: list = []
    if dispositions is not None:
        quarantined = sorted(
            i for i, d in dispositions.items() if d.get("status") == "quarantined"
        )
        extras["recovery"] = {
            "quarantined": quarantined,
            "failed_ranks": sorted(comm.failed_ranks()),
            "resumed": sorted(
                i for i, d in dispositions.items() if d.get("status") == "resumed"
            ),
        }
    if cache.enabled:
        extras["geom_cache"] = cache.stats.snapshot()
    return CrossSectionResult(
        cross_section=cross,
        binmd=binmd,
        mdnorm=mdnorm,
        timings=timings,
        n_runs=n_runs,
        backend=backend or "default",
        extras=extras or None,
        degraded=bool(quarantined),
        dispositions=dispositions,
    )


def _check_cancel(recovery: Optional[RecoveryConfig], where: str) -> None:
    """Cooperative cancellation between durable units: every run
    completed so far is already checkpointed, so stopping here leaves
    the campaign resumable bit-identically."""
    if recovery is None or recovery.cancel is None:
        return
    try:
        recovery.cancel.check(where)
    except CancelledError:
        _trace.active_tracer().count("campaign.cancelled")
        raise


# ---------------------------------------------------------------------------
# the campaign loop
# ---------------------------------------------------------------------------

def compute_cross_section(
    load_run: Callable[[int], MDEventWorkspace],
    n_runs: int,
    grid: HKLGrid,
    point_group: PointGroup,
    flux: FluxSpectrum,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    *,
    comm: Optional[Comm] = None,
    backend: Optional[str] = None,
    sort_impl: str = "library",
    scatter_impl: str = "atomic",
    timings: Optional[StageTimings] = None,
    binmd_impl: Optional[Callable] = None,
    mdnorm_impl: Optional[Callable] = None,
    cache: Optional[GeomCache] = None,
    recovery: Optional[RecoveryConfig] = None,
    shards: Optional[ShardConfig] = None,
    run_weights: Optional[Sequence[float]] = None,
    executor: Optional[str] = None,
    schedule: Optional[Any] = None,
) -> CrossSectionResult:
    """Run Algorithm 1.

    Parameters
    ----------
    load_run:
        ``load_run(i) -> MDEventWorkspace`` for run index ``i`` — the
        timed ``UpdateEvents`` stage (usually ``load_md`` on a file).
    n_runs:
        Total number of experiment runs (files).
    grid, point_group, flux:
        Output grid, sample symmetry, incident spectrum.
    det_directions, solid_angles:
        Instrument geometry + vanadium weights for MDNorm.
    comm:
        Simulated MPI communicator; None = single rank.
    backend:
        jacc back end for both kernels; None = process default.
    binmd_impl / mdnorm_impl:
        Alternative kernel implementations with the same signatures as
        :func:`repro.core.binmd.bin_events` (minus ``backend``) and
        :func:`repro.core.mdnorm.mdnorm` — this is how the proxy
        applications plug their optimized kernels into the identical
        Algorithm-1 loop.
    cache:
        Geometry cache shared by the MDNorm/BinMD hot path; None uses
        the process default, :data:`repro.core.geom_cache.DISABLED`
        opts out.  Entries are tagged ``"run:<i>"`` for targeted
        invalidation.  Cache statistics are reported in
        ``result.extras["geom_cache"]`` on the root rank.
    recovery:
        The failure policy around the loop.  When given:

        * each run is wrapped in :func:`repro.util.faults.retry_call` —
          transient failures (I/O, corrupt payloads, kernel errors) are
          retried with backoff, and every retry invalidates the run's
          geometry-cache entries first (a corrupt read may have
          populated the cache from a corrupt source);
        * a run that exhausts its retry budget is **quarantined** (when
          ``recovery.quarantine``): its disposition is durably recorded
          and the campaign completes *degraded* on the survivors;
        * with a checkpoint manager, each completed run's delta is
          persisted; with ``recovery.resume`` completed runs are
          digest-verified on disk instead of recomputed, and the final
          histograms are rebuilt by summing the per-run deltas in
          ascending run order — independent of rank layout, crashes and
          resume points, which is what makes kill-and-resume
          bit-identical;
        * an injected :class:`~repro.util.faults.RankCrashError` marks
          the rank dead: its unfinished runs are published to the world
          (``Comm.mark_failed``), the survivors' next barrier completes
          with the remaining parties, and the dead rank's backlog is
          redistributed round-robin over the alive ranks.  A second
          crash during the takeover phase is *not* re-redistributed —
          it fails loudly through the runner (double-fault policy);
        * ``recovery.cancel`` is checked before every run.

        ``None`` is the no-op policy of the same loop: each run is
        attempted once, directly, and its exception propagates
        unchanged; there is no quarantine, checkpoint or cancel scope.
        Both fold the same per-run deltas in the same order, so they
        are bit-identical on a fault-free campaign.
    shards:
        When given, each owned run's MDNorm fans out over detector
        shards and its BinMD over event shards on the node-local
        process pool (:func:`repro.core.sharding.sharded_mdnorm` /
        :func:`~repro.core.sharding.sharded_binmd`) — the second level
        of the hierarchical decomposition.  Shards run the batch
        kernels, so the result is bit-identical to the unsharded
        ``vectorized`` loop for every shard/worker count and every
        ``backend`` (which then only runs the MDNorm pre-pass).
        Ignored for a stage whose ``*_impl`` override is set (the
        override owns its own parallelism).
    run_weights:
        Optional per-run event weights (from the run manifest).  When
        given, ranks take weight-balanced contiguous run blocks
        (:func:`repro.mpi.balanced_rank_runs`) instead of equal-count
        blocks — the outer level of the 2-D decomposition.
    executor:
        One of :data:`EXECUTORS`.  ``None``/``"static"`` is the fixed
        rank-block plan below; ``"stealing"`` dispatches to the elastic
        work-stealing executor (:mod:`repro.mpi.stealing`), whose
        result is bit-identical to the static plan with a checkpoint
        for every steal schedule.
    schedule:
        Stealing executor only: a
        :class:`repro.util.schedule.ScheduleController` driving steal
        and birth/leave/death decisions (None = seeded default).
    """
    check_executor(executor)
    if executor == "stealing":
        # imported here: the stealing executor imports this module
        from repro.mpi.stealing import run_stealing_campaign

        return run_stealing_campaign(
            load_run, n_runs, grid, point_group, flux,
            det_directions, solid_angles,
            comm=comm, backend=backend, sort_impl=sort_impl,
            scatter_impl=scatter_impl, timings=timings,
            binmd_impl=binmd_impl, mdnorm_impl=mdnorm_impl,
            cache=cache, recovery=recovery, shards=shards,
            run_weights=run_weights, schedule=schedule,
        )
    if schedule is not None:
        raise ValidationError(
            "schedule is only meaningful with a dynamic executor "
            "(got executor=%r)" % (executor,)
        )
    require(n_runs >= 1, "need at least one run")
    cache = _gc.resolve(cache)
    comm = comm or SequentialComm()
    timings = timings or StageTimings(label=f"cross-section[{backend or 'default'}]")
    tracer = _trace.active_tracer()
    monitor = _monitor.active_monitor()
    ckpt = recovery.checkpoint if recovery is not None else None

    # this rank's totals (under a checkpoint the root rebuilds the
    # result from the durable deltas instead)
    fold = RunFold(grid)
    dispositions: Dict[int, Dict[str, Any]] = {}

    def compute_run(i: int, attempt_no: int) -> Tuple[Hist3, Hist3, int, int]:
        """Run ``i``'s contribution in fresh scratch histograms, so a
        failed attempt never leaves a partial deposit (retry safety);
        returns them with the run's event count and ``attempt_no``."""
        if monitor.enabled:
            # announce the run *before* its fault point so a slow /
            # wedged run ages this heartbeat (stall detection)
            monitor.heartbeat(
                comm.rank, site=f"run:{i}/UpdateEvents", run=i
            )
        _faults.fault_point("run", run=i)
        scratch_b = Hist3(grid, track_errors=True)
        scratch_m = Hist3(grid)
        ws = load_checked(load_run, i, timings)
        event_transforms = grid.transforms_for(ws.ub_matrix, point_group)
        traj_transforms = grid.transforms_for(
            ws.ub_matrix, point_group, goniometer=ws.goniometer
        )
        if monitor.enabled:
            monitor.heartbeat(comm.rank, site=f"run:{i}/MDNorm")
        with timings.stage("MDNorm"):
            _faults.fault_point("kernel.mdnorm", run=i)
            if mdnorm_impl is not None:
                mdnorm_impl(
                    scratch_m, traj_transforms, det_directions,
                    solid_angles, flux, ws.momentum_band,
                    charge=ws.proton_charge,
                )
            elif shards is not None:
                sharded_mdnorm(
                    scratch_m, traj_transforms, det_directions,
                    solid_angles, flux, ws.momentum_band,
                    shards=shards, charge=ws.proton_charge,
                    backend=backend, cache=cache, cache_tag=f"run:{i}",
                    run=i,
                    on_shard=_shard_beat(monitor, comm, i, "MDNorm"),
                )
            else:
                mdnorm(
                    scratch_m, traj_transforms, det_directions,
                    solid_angles, flux, ws.momentum_band,
                    charge=ws.proton_charge, backend=backend,
                    sort_impl=sort_impl, scatter_impl=scatter_impl,
                    cache=cache, cache_tag=f"run:{i}",
                )
        if monitor.enabled:
            monitor.heartbeat(comm.rank, site=f"run:{i}/BinMD")
        with timings.stage("BinMD"):
            _faults.fault_point("kernel.binmd", run=i)
            if binmd_impl is not None:
                binmd_impl(scratch_b, ws.events, event_transforms)
            elif shards is not None or _is_lazy(ws.events):
                sharded_binmd(
                    scratch_b, ws.events, event_transforms,
                    shards=shards if shards is not None else _OOC_FALLBACK,
                    run=i,
                    on_shard=_shard_beat(monitor, comm, i, "BinMD"),
                )
            else:
                bin_events(
                    scratch_b, ws.events, event_transforms,
                    backend=backend, scatter_impl=scatter_impl,
                    cache=cache, cache_tag=f"run:{i}",
                )
        return scratch_b, scratch_m, n_events(ws), attempt_no

    def process_run(i: int) -> None:
        """Resume, compute or quarantine run ``i``; fold its delta."""
        with tracer.span("run", kind="run", run=int(i)):
            if ckpt is not None and recovery.resume:
                resumed = resume_disposition(
                    ckpt, i, grid, rank=comm.rank, cache=cache, monitor=monitor
                )
                if resumed is not None:
                    dispositions[i] = resumed
                    return
            try:
                scratch_b, scratch_m, events, attempts = call_run(
                    lambda n: compute_run(i, n), site=f"run[{i}]",
                    recovery=recovery,
                    # a corrupt read may have seeded the cache from bad bytes
                    on_retry=lambda exc, n: cache.invalidate(f"run:{i}"),
                )
            except _faults.RetryExhaustedError as exc:
                if recovery is None or not recovery.quarantine:
                    raise
                dispositions[i] = quarantine_disposition(
                    ckpt, i, exc, rank=comm.rank, monitor=monitor
                )
                return
            fold.add(RunDelta(i, scratch_b.signal, scratch_b.error_sq,
                              scratch_m.signal))
            dispositions[i] = done_disposition(
                ckpt, i, scratch_b, scratch_m, attempts=attempts,
                rank=comm.rank, monitor=monitor, events=events,
            )

    start, end = _rank_block(n_runs, comm, run_weights)
    my_runs = list(range(start, end))
    if monitor.enabled:
        monitor.start_campaign(n_runs, comm.size)
        monitor.assign_runs(comm.rank, len(my_runs))
    span_attrs: Dict[str, Any] = {}
    if recovery is not None:
        span_attrs["recovery"] = True
    if shards is not None:
        span_attrs["n_shards"] = int(shards.n_shards)
    with tracer.span(
        "cross_section",
        kind="algorithm",
        backend=backend or "default",
        n_runs=int(n_runs),
        mpi_rank=int(comm.rank),
        mpi_size=int(comm.size),
        **span_attrs,
    ), timings.stage("Total"), (
        _cancel.cancel_scope(recovery.cancel) if recovery is not None
        else contextlib.nullcontext()
    ):
        for i in my_runs:
            _check_cancel(recovery, f"campaign (before run {i})")
            try:
                process_run(i)
            except _faults.RankCrashError:
                if recovery is None or comm.size == 1:
                    # no-op policy, or a lone rank that cannot recover
                    # from its own death
                    raise
                # durable work survives; everything else is the backlog
                if ckpt is not None:
                    leftover = [j for j in my_runs if j not in dispositions]
                else:
                    leftover = list(my_runs)  # in-memory partials die with us
                comm.mark_failed({"runs": leftover})
                tracer.count("rank.crash")
                if monitor.enabled:
                    monitor.record_crash(comm.rank)
                return non_root_result(timings, n_runs, backend)

        # -- rendezvous: learn who died, adopt their backlog ---------------
        if recovery is not None and comm.size > 1:
            comm.Barrier()
            failed = comm.failed_ranks()
            if failed:
                backlog = sorted({
                    int(r) for info in failed.values()
                    for r in info.get("runs", ())
                })
                alive = comm.alive_ranks()
                pos_in_alive = alive.index(comm.rank)
                takeover = [r for idx, r in enumerate(backlog)
                            if idx % len(alive) == pos_in_alive]
                for i in takeover:
                    _check_cancel(recovery, f"campaign (before takeover run {i})")
                    # a crash here is a double fault: fail loudly
                    process_run(i)

        # -- final combine --------------------------------------------------
        eff_root = comm.alive_ranks()[0]
        merged = (_merge_dispositions(comm, dispositions)
                  if recovery is not None else None)
        if ckpt is not None:
            comm.Barrier()
            if comm.rank != eff_root:
                return non_root_result(timings, n_runs, backend)
            rebuilt = fold_checkpoint(ckpt, grid)
            binmd_out, mdnorm_out = rebuilt.binmd, rebuilt.mdnorm
        else:
            with tracer.span("mpi_reduce", kind="mpi",
                             mpi_rank=int(comm.rank), mpi_size=int(comm.size)):
                is_root = comm.rank == eff_root
                binmd_total = np.empty_like(fold.binmd.signal) if is_root else None
                mdnorm_total = np.empty_like(fold.mdnorm.signal) if is_root else None
                comm.Reduce(fold.binmd.signal, binmd_total, op=SUM, root=eff_root)
                comm.Reduce(fold.mdnorm.signal, mdnorm_total, op=SUM, root=eff_root)
            if not is_root:
                return non_root_result(timings, n_runs, backend)
            binmd_out = Hist3(grid, signal=binmd_total)
            mdnorm_out = Hist3(grid, signal=mdnorm_total)
        cross = binmd_out.divide(mdnorm_out)
    return root_result(
        binmd_out, mdnorm_out, cross, timings=timings, n_runs=n_runs,
        backend=backend, comm=comm, cache=cache, monitor=monitor,
        dispositions=merged,
    )


def _merge_dispositions(
    comm: Comm, local: Dict[int, Dict[str, Any]]
) -> Dict[int, Dict[str, Any]]:
    """Allgather + merge per-rank run dispositions (dead ranks excluded)."""
    if comm.size == 1:
        return dict(local)
    gathered = comm.allgather(local)
    merged: Dict[int, Dict[str, Any]] = {}
    for part in gathered:
        if part:
            merged.update(part)
    return merged
