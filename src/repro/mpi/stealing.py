"""Elastic work stealing over the campaign's (run, stage) cells.

The static executor fixes every run to a rank block up front, so one
slow run — skewed chunk compression, a cold cache, a quarantine retry
storm — idles every other rank.  This executor makes the plan
**elastic**: each run contributes two cells, its MDNorm and its BinMD,
and the campaign's cells live in one shared :class:`StealQueue`.  Each
rank drains its own planned deque first and, when the schedule allows,
steals from the tail of a victim's deque (victim selection by
remaining weight: trajectories for MDNorm; for BinMD the stored bytes
of an out-of-core run's chunk index, else event lanes).  Ranks can join mid-campaign
(*birth*: a spawned worker registers and drains the queue), leave
cleanly (drain-and-requeue), or die holding work (their claimed cells
requeue; the queue's claim/complete accounting keeps execution
exactly-once).

The executor only decides *which* rank runs a cell.  A cell attempt is
the static loop's own stage code,
:func:`repro.core.cross_section.run_stage`: the same kernel choice
(``*_impl`` override, shard fan-out, or the plain kernel on
``backend``), the same shards fanned out inside the cell, the same
fresh scratch histogram.  Execution order is deliberately chaotic, so
nothing numeric depends on it (DESIGN.md §6h):

* a run's delta is its two stage histograms, each computed by one
  attempt of the same code on the same inputs as in the static loop,
  on whichever rank ran the cell;
* the effective root folds the per-run deltas in **ascending run
  order** through the campaign loop's one fold
  (:class:`repro.core.cross_section.RunFold`), so for *every* steal
  schedule the result equals, bit for bit, the static loop with the
  same options on one rank, or checkpointed/resumed on any number of
  ranks.

Everything per run that is not scheduling — load and UB check, the
failure policy around an attempt, cancellation, the
resume/quarantine/done dispositions, the fold and the result — is the
static loop's own code, imported from :mod:`repro.core.cross_section`.

Checkpoint/resume compatibility: deltas checkpoint per run exactly as
the static loop's do; on ``--resume`` completed runs replay from disk
and both cells of an incomplete run — including a cell that was
in flight (stolen) at the kill — go back into the queue.

The simulated-MPI caveat applies throughout: ranks are threads of one
process (:mod:`repro.mpi.comm`), so "the shared queue" is literally a
shared object distributed by reference over ``Comm.bcast``, and rank
birth is a thread spawn — stand-ins for an RDMA task pool and
``MPI_Comm_spawn`` on the real machines.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.checkpoint import RecoveryConfig, RunDelta
from repro.core.cross_section import (
    STAGES,
    CampaignInputs,
    CrossSectionResult,
    RunFold,
    call_run,
    check_cancel,
    done_disposition,
    fold_checkpoint,
    load_checked,
    n_events,
    non_root_result,
    quarantine_disposition,
    rank_block,
    recovery_cancel_scope,
    resume_disposition,
    root_result,
    run_stage,
)
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.sharding import ShardConfig
# bound here, unused, because perfbench/layers.py wraps these names in
# this module's namespace
from repro.core.sharding import (  # noqa: F401
    binmd_shard_context,
    execute_shard_range,
    mdnorm_shard_context,
)
from repro.crystal.symmetry import PointGroup
from repro.mpi.comm import Comm, SequentialComm
from repro.nexus.corrections import FluxSpectrum
from repro.util import faults as _faults
from repro.util import monitor as _monitor
from repro.util import trace as _trace
from repro.util.cancel import CancelledError
from repro.util.schedule import ScheduleController
from repro.util.timers import StageTimings
from repro.util.validation import require

#: idle backoff while peers hold the last claimed cells
_IDLE_SLEEP_S = 0.0005


@dataclass(frozen=True)
class StealTask:
    """One stealable cell: one stage of one run."""

    run: int
    stage: str            # "mdnorm" | "binmd"
    owner: int            # rank the static plan assigned the run to
    weight: float         # work estimate (trajectories / stored bytes / lanes)
    plan_uid: Optional[str] = None  # planning span's global uid (trace v3)

    @property
    def key(self) -> Tuple[int, str]:
        return (self.run, self.stage)


class StealQueue:
    """The shared elastic work queue with exactly-once accounting.

    Per-owner deques: an owner pops its own head (preserving the static
    plan's order when nobody steals); thieves pop a victim's *tail*
    (classic work-stealing, minimizing contention on the owner's next
    task).  Every task moves ``pending → claimed → done`` (or
    ``dropped`` when its run quarantines); a dying or leaving rank's
    claimed and pending tasks requeue, so no task is ever lost and none
    can complete twice — :meth:`complete` is the single bottleneck that
    marks a key done exactly once.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._pending: Dict[int, deque] = {}
        self._claimed: Dict[Tuple[int, str], Tuple[int, StealTask]] = {}
        self._done: Set[Tuple[int, str]] = set()
        self._dropped: Set[Tuple[int, str]] = set()
        self._quarantined_runs: Set[int] = set()
        self._active: Set[int] = set()
        #: ranks that left or died; a rank that has not joined yet is
        #: not gone, so its planned work is not orphaned
        self._gone: Set[int] = set()
        self.total = 0
        self.steals = 0
        self.adoptions = 0

    # -- membership -------------------------------------------------------
    def register_rank(self, rank: int) -> None:
        with self._lock:
            self._active.add(int(rank))
            self._pending.setdefault(int(rank), deque())

    def deregister_rank(self, rank: int) -> None:
        """Clean leave: the rank's remaining deque becomes orphan work."""
        with self._lock:
            self._active.discard(int(rank))
            self._gone.add(int(rank))

    def release_rank(self, rank: int) -> None:
        """Crash/leave: requeue the rank's claimed tasks, deregister it.

        Claimed tasks go back to the *head* of their owner's deque (they
        were next in plan order); the rank's own pending deque stays
        where it is and becomes adoptable once the rank is inactive.
        """
        with self._lock:
            for key, (holder, task) in list(self._claimed.items()):
                if holder == rank:
                    del self._claimed[key]
                    self._pending.setdefault(task.owner, deque()).appendleft(task)
            self._active.discard(int(rank))
            self._gone.add(int(rank))

    # -- intake -----------------------------------------------------------
    def add_task(self, task: StealTask) -> None:
        with self._lock:
            self._pending.setdefault(task.owner, deque()).append(task)
            self.total += 1

    # -- views ------------------------------------------------------------
    def own_depth(self, rank: int) -> int:
        with self._lock:
            dq = self._pending.get(rank)
            return len(dq) if dq else 0

    def depth(self) -> int:
        with self._lock:
            return sum(len(dq) for dq in self._pending.values())

    def remaining_weights(self, exclude: int) -> Dict[int, float]:
        """Active ranks (≠ ``exclude``) with queued work → total weight."""
        with self._lock:
            return {
                r: sum(t.weight for t in dq)
                for r, dq in self._pending.items()
                if r != exclude and dq and r in self._active
            }

    def completed_count(self) -> int:
        with self._lock:
            return len(self._done) + len(self._dropped)

    def all_done(self) -> bool:
        with self._lock:
            return (
                not self._claimed
                and not any(self._pending.values())
            )

    # -- claim / complete -------------------------------------------------
    def claim_own(self, rank: int) -> Optional[StealTask]:
        with self._lock:
            dq = self._pending.get(rank)
            if not dq:
                return None
            task = dq.popleft()
            self._claimed[task.key] = (rank, task)
            return task

    def claim_steal(self, thief: int, victim: int) -> Optional[StealTask]:
        with self._lock:
            dq = self._pending.get(victim)
            if not dq:
                return None
            task = dq.pop()
            self._claimed[task.key] = (thief, task)
            self.steals += 1
            return task

    def claim_orphan(self, thief: int) -> Optional[StealTask]:
        """Adopt work whose owner is gone (dead or left) — the liveness
        backstop that no schedule policy can veto."""
        with self._lock:
            for r in sorted(self._pending):
                if r not in self._gone:
                    continue
                dq = self._pending[r]
                if dq:
                    task = dq.popleft()
                    self._claimed[task.key] = (thief, task)
                    self.adoptions += 1
                    return task
            return None

    def complete(self, rank: int, task: StealTask) -> bool:
        """Mark a claimed task finished; True iff its result counts
        (False: the run quarantined while the task was in flight)."""
        with self._lock:
            self._claimed.pop(task.key, None)
            if task.run in self._quarantined_runs:
                self._dropped.add(task.key)
                return False
            self._done.add(task.key)
            return True

    def drop_run(self, run: int) -> None:
        """Quarantine: purge the run's pending tasks, poison in-flight
        completions (their histograms are discarded on arrival)."""
        with self._lock:
            self._quarantined_runs.add(int(run))
            for dq in self._pending.values():
                kept = [t for t in dq if t.run != run]
                if len(kept) != len(dq):
                    for t in dq:
                        if t.run == run:
                            self._dropped.add(t.key)
                    dq.clear()
                    dq.extend(kept)

    def is_quarantined(self, run: int) -> bool:
        with self._lock:
            return int(run) in self._quarantined_runs


class _StealState:
    """Everything the ranks share, built once on the root and broadcast
    (by reference — the simulated world's ranks are threads)."""

    def __init__(
        self,
        *,
        queue: StealQueue,
        controller: ScheduleController,
        recovery: Optional[RecoveryConfig],
        world_size: int,
    ) -> None:
        self.queue = queue
        self.controller = controller
        self.recovery = recovery
        self.ckpt = recovery.checkpoint if recovery is not None else None
        self.world_size = int(world_size)
        self.lock = threading.RLock()
        self.workspaces: Dict[int, Any] = {}
        #: run -> stage -> the stage's histogram, until both have reported
        self.stage_hists: Dict[int, Dict[str, Hist3]] = {}
        self.run_attempts: Dict[int, int] = {}
        self.deltas: Dict[int, RunDelta] = {}
        self.dispositions: Dict[int, Dict[str, Any]] = {}
        self.helpers: List[threading.Thread] = []
        self.next_helper_rank = int(world_size)
        self.births = 0


def run_stealing_campaign(
    load_run: Callable[[int], Any],
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
    cache: Optional[Any] = None,
    recovery: Optional[RecoveryConfig] = None,
    shards: Optional[ShardConfig] = None,
    run_weights: Optional[Sequence[float]] = None,
    schedule: Optional[ScheduleController] = None,
) -> CrossSectionResult:
    """Algorithm 1 with elastic (run, stage) cells (see module docs).

    Drop-in signature match for the dispatch in
    :func:`repro.core.cross_section.compute_cross_section` with
    ``executor="stealing"``; every kernel option — ``backend``,
    ``sort_impl``, ``scatter_impl``, ``shards`` and the ``*_impl``
    overrides — means what it means in the static loop, because a cell
    runs the static loop's stage code.  ``schedule`` is the
    :class:`~repro.util.schedule.ScheduleController` driving steal and
    birth/leave/death decisions (the root rank's instance wins; default
    is the seeded ``weighted`` policy).
    """
    require(n_runs >= 1, "need at least one run")
    comm = comm or SequentialComm()
    timings = timings or StageTimings(
        label=f"cross-section[{backend or 'default'}]"
    )
    tracer = _trace.active_tracer()
    monitor = _monitor.active_monitor()
    inputs = CampaignInputs(
        grid=grid, point_group=point_group, flux=flux,
        det_directions=det_directions, solid_angles=solid_angles,
        backend=backend, sort_impl=sort_impl, scatter_impl=scatter_impl,
        binmd_impl=binmd_impl, mdnorm_impl=mdnorm_impl,
        cache=_gc.resolve(cache), shards=shards, timings=timings,
        monitor=monitor,
    )

    if monitor.enabled:
        monitor.start_campaign(n_runs, comm.size)

    with tracer.span(
        "cross_section",
        kind="algorithm",
        backend=backend or "default",
        n_runs=int(n_runs),
        mpi_rank=int(comm.rank),
        mpi_size=int(comm.size),
        executor="stealing",
        **({"n_shards": int(shards.n_shards)} if shards is not None else {}),
    ), timings.stage("Total"), recovery_cancel_scope(recovery):
        # -- plan + share (root builds, everyone receives the reference)
        state: Optional[_StealState] = None
        if comm.rank == 0:
            state = _plan(load_run, n_runs, comm, inputs, recovery=recovery,
                          run_weights=run_weights, schedule=schedule)
            if shards is not None and shards.effective_workers > 1:
                # Fork the shard-worker pool now, while every other
                # rank thread is parked at the bcast below: a fork
                # taken mid-kernel on a sibling thread can hand the
                # children locked BLAS/OpenMP state they never escape.
                from repro.jacc.workers import GLOBAL_POOL

                GLOBAL_POOL.executor(shards.effective_workers)
        if comm.size > 1:
            state = comm.bcast(state, root=0)
        assert state is not None
        state.queue.register_rank(comm.rank)
        if monitor.enabled:
            monitor.assign_runs(comm.rank, state.queue.own_depth(comm.rank))
        check_cancel(recovery, "campaign (before the first claim)")
        # every rank starts on its own first cell, claimed before any
        # rank may steal: which rank thread the OS runs first can then
        # never leave a rank without work it was planned to hold
        first = state.queue.claim_own(comm.rank)
        if comm.size > 1:
            comm.Barrier()

        crashed = False
        try:
            _work_loop(state, inputs, comm.rank, helper=False, first=first)
        except _faults.RankCrashError:
            if comm.size == 1:
                raise  # a lone rank cannot recover from its own death
            state.queue.release_rank(comm.rank)
            comm.mark_failed({"runs": []})
            tracer.count("rank.crash")
            if monitor.enabled:
                monitor.record_crash(comm.rank)
            crashed = True

        # helper (born) ranks drain with the world; every survivor joins
        # them so a spawner's later death cannot leak a thread
        for t in list(state.helpers):
            t.join()
        if crashed:
            return non_root_result(timings, n_runs, backend)

        # -- rendezvous + ascending-run fold on the effective root ------
        if comm.size > 1:
            comm.Barrier()
        alive = comm.alive_ranks()
        eff_root = alive[0]
        if comm.rank != eff_root:
            return non_root_result(timings, n_runs, backend)

        if state.ckpt is not None:
            fold = fold_checkpoint(state.ckpt, grid)
        else:
            fold = RunFold.of(grid, (state.deltas[i] for i in sorted(state.deltas)))
        cross = fold.binmd.divide(fold.mdnorm)

    return root_result(
        fold.binmd, fold.mdnorm, cross, timings=timings, n_runs=n_runs,
        backend=backend, comm=comm, cache=inputs.cache, monitor=monitor,
        dispositions=dict(state.dispositions),
        extras={"stealing": {
            "steals": int(state.queue.steals),
            "adoptions": int(state.queue.adoptions),
            "births": int(state.births),
            "tasks": int(state.queue.total),
            "policy": state.controller.policy,
            "seed": state.controller.seed,
            "schedule_signature": state.controller.schedule_signature(),
        }},
    )


# ---------------------------------------------------------------------------
# planning (root rank)
# ---------------------------------------------------------------------------

def _plan(
    load_run: Callable[[int], Any],
    n_runs: int,
    comm: Comm,
    c: CampaignInputs,
    *,
    recovery: Optional[RecoveryConfig],
    run_weights: Optional[Sequence[float]],
    schedule: Optional[ScheduleController],
) -> _StealState:
    """Load every run, enqueue its two cells on the run's static owner.

    The owners are the static executor's rank blocks, so a ``no-steal``
    schedule executes exactly the static plan.  Runs already completed
    in a resumed checkpoint enqueue nothing; per-run checkpoint
    granularity means both cells of an incomplete run go back into the
    queue, including a cell in flight (stolen) at the kill.
    """
    owner_of = {
        i: r for r in range(comm.size)
        for i in range(*rank_block(n_runs, r, comm.size, run_weights))
    }
    state = _StealState(
        queue=StealQueue(),
        controller=schedule or ScheduleController(seed=0, policy="weighted"),
        recovery=recovery, world_size=comm.size,
    )
    for r in range(comm.size):
        state.queue.register_rank(r)
    ckpt = state.ckpt
    resume = bool(recovery is not None and recovery.resume and ckpt is not None)
    n_det = int(np.asarray(c.det_directions).shape[0])
    tracer = _trace.active_tracer()

    for i in range(n_runs):
        if resume:
            resumed = resume_disposition(
                ckpt, i, c.grid, rank=comm.rank, cache=c.cache,
                monitor=c.monitor,
            )
            if resumed is not None:
                state.dispositions[i] = resumed
                continue
        if c.monitor.enabled:
            c.monitor.heartbeat(comm.rank, site=f"run:{i}/UpdateEvents", run=i)
        try:
            ws = call_run(
                lambda n: load_checked(load_run, i, c.timings),
                site=f"run[{i}]", recovery=recovery,
                on_retry=lambda exc, n: c.cache.invalidate(f"run:{i}"),
            )
        except _faults.RetryExhaustedError as exc:
            if recovery is None or not recovery.quarantine:
                raise
            _quarantine(state, i, exc, comm.rank, c.monitor)
            continue
        state.workspaces[i] = ws
        n_ops = c.point_group.order
        # victim-selection weights: trajectories for MDNorm; for BinMD
        # the stored (compressed) bytes of an out-of-core table, which
        # its decode cost tracks, else event lanes
        weights = {
            "mdnorm": float(n_ops * n_det),
            "binmd": (float(sum(ws.events.chunk_stored_nbytes()))
                      if hasattr(ws.events, "chunk_stored_nbytes")
                      else float(n_ops * n_events(ws))),
        }
        # each enqueue is a planning span whose uid rides the task, so
        # an executing (possibly stolen) span can link back to the
        # exact planning site across ranks
        for stage in STAGES:
            with tracer.span(f"plan:{stage}", kind="plan_task", run=int(i),
                             owner=int(owner_of[i])) as plan_span:
                state.queue.add_task(StealTask(
                    run=i, stage=stage, owner=owner_of[i],
                    weight=weights[stage], plan_uid=plan_span.uid,
                ))
    return state


# ---------------------------------------------------------------------------
# the scheduling loop (every rank, plus born helpers)
# ---------------------------------------------------------------------------

def _work_loop(state: _StealState, c: CampaignInputs, rank: int, *,
               helper: bool, first: Optional[StealTask] = None) -> None:
    """Drain the queue as ``rank``; ``first`` is a cell the rank already
    claimed from its own deque, executed before the first acquire."""
    q = state.queue
    ctl = state.controller
    tracer = _trace.active_tracer()
    leaving = False
    while True:
        for action in ctl.lifecycle(rank, q.completed_count()):
            if action == "birth":
                _spawn_helper(state, c)
            elif action == "leave":
                leaving = True
            elif action == "death":
                raise _faults.RankCrashError(
                    "steal.lifecycle", "rank_crash", 0
                )
        if leaving:
            # drain-and-requeue: the current cell (if any) already
            # finished; an unstarted ``first`` claim goes back to the
            # head of the deque, which becomes orphan work
            q.release_rank(rank)
            tracer.count("steal.leaves")
            return

        task, first = first, None
        stolen = False
        victim = None
        if task is None:
            check_cancel(state.recovery, f"campaign (before a claim on rank {rank})")
            victims = q.remaining_weights(exclude=rank)
            own_depth = q.own_depth(rank)
            if own_depth or victims:
                victim = ctl.acquire(rank, own_depth, victims)
            if victim is not None:
                task = q.claim_steal(rank, victim)
                stolen = task is not None
            if task is None:
                task = q.claim_own(rank)
                stolen = False
            if task is None:
                task = q.claim_orphan(rank)
                stolen = task is not None
                victim = None
        if task is None:
            if q.all_done():
                return
            time.sleep(_IDLE_SLEEP_S)
            continue
        try:
            _execute_task(state, c, rank, task, stolen=stolen, victim=victim)
        except _faults.RankCrashError:
            q.release_rank(rank)
            if helper:
                # a born worker's death is invisible to the world's
                # collectives — its work simply requeues
                tracer.count("steal.helper_deaths")
                return
            raise
        except BaseException:
            # unexpected failure: requeue the claim before propagating,
            # otherwise the cell stays claimed-by-a-dead-rank forever
            # and every surviving rank spins on a queue that can never
            # drain
            q.release_rank(rank)
            raise


def _spawn_helper(state: _StealState, c: CampaignInputs) -> None:
    """Rank birth: a new worker joins mid-campaign (thread-spawn
    stand-in for ``MPI_Comm_spawn``), registers with the queue, drains
    it alongside everyone else, exits when the queue is dry."""
    with state.lock:
        new_rank = state.next_helper_rank
        state.next_helper_rank += 1
        state.births += 1
    state.queue.register_rank(new_rank)
    tracer = _trace.active_tracer()
    tracer.count("steal.births")
    spawn_span = tracer.current_span()
    spawn_uid = (spawn_span.uid if spawn_span is not None
                 else _trace.remote_parent())

    def body() -> None:
        with _trace.rank_scope(new_rank), _trace.parent_scope(spawn_uid), \
                recovery_cancel_scope(state.recovery):
            with tracer.span("rank", kind="rank", rank=int(new_rank),
                             size=int(state.world_size), born=True):
                try:
                    _work_loop(state, c, new_rank, helper=True)
                except CancelledError:
                    pass  # the world's ranks see the same token and raise
                finally:
                    state.queue.deregister_rank(new_rank)

    t = threading.Thread(target=body, name=f"steal-born-{new_rank}")
    # start *before* publishing to state.helpers: a concurrently
    # draining rank joins every published helper, and joining a
    # not-yet-started thread raises RuntimeError.  A helper published
    # after a drain's snapshot is still joined by the spawner itself —
    # its own drain loop runs after this function returns.
    t.start()
    with state.lock:
        state.helpers.append(t)


def _execute_task(
    state: _StealState,
    c: CampaignInputs,
    rank: int,
    task: StealTask,
    *,
    stolen: bool,
    victim: Optional[int],
) -> None:
    """One attempt loop of a cell: the static loop's stage code under
    the run-level failure policy, then the run's fold bookkeeping when
    this was its last cell."""
    q = state.queue
    tracer = _trace.active_tracer()
    with state.lock:
        # a quarantine drops the run's workspace under this same lock
        ws = None if q.is_quarantined(task.run) else state.workspaces[task.run]
    if ws is None:
        q.complete(rank, task)
        return
    if stolen and victim is not None and c.monitor.enabled:
        c.monitor.record_steal(rank, victim, task.run)
    with tracer.span(
        f"steal:{task.stage}",
        kind="steal" if stolen else "steal_task",
        run=int(task.run),
        weight=float(task.weight),
        owner=int(task.owner),
        exec_rank=int(rank),
        stolen=bool(stolen),
        **({"victim": int(victim)} if victim is not None else {}),
    ) as sp:
        if stolen:
            tracer.count("steals")
            # causal handoff: the executing rank's span back to the
            # planning rank's task span (cross-rank, so a link record —
            # never a parent edge)
            tracer.link(
                sp.uid, task.plan_uid, kind="steal",
                run=int(task.run), exec_rank=int(rank),
                **({"victim": int(victim)} if victim is not None else {}),
            )
        tracer.gauge("steal.queue_depth", float(q.depth()))

        def attempt(attempt_no: int) -> Hist3:
            with state.lock:
                state.run_attempts[task.run] = max(
                    state.run_attempts.get(task.run, 0), attempt_no
                )
            _faults.fault_point("steal.task", rank=rank, run=task.run)
            _faults.fault_point("run", run=task.run)
            return run_stage(c, task.stage, task.run, ws, rank=rank)

        try:
            hist = call_run(
                attempt, site=f"steal[run{task.run}/{task.stage}]",
                recovery=state.recovery,
                # a corrupt read may have seeded the cache from bad bytes
                on_retry=lambda exc, n: c.cache.invalidate(f"run:{task.run}"),
            )
        except _faults.RetryExhaustedError as exc:
            if state.recovery is None or not state.recovery.quarantine:
                raise
            _quarantine(state, task.run, exc, rank, c.monitor)
            q.complete(rank, task)
            return

        with state.lock:
            if not q.complete(rank, task):
                return  # the run quarantined while this cell ran
            sp.set(completed=True)
            hists = state.stage_hists.setdefault(task.run, {})
            hists[task.stage] = hist
            if len(hists) < len(STAGES):
                return
            del state.stage_hists[task.run]
            state.workspaces.pop(task.run)  # out-of-core hygiene
            attempts = state.run_attempts.get(task.run, 1)
        _finish_run(state, c, rank, task.run, hists, ws, attempts)


def _finish_run(
    state: _StealState,
    c: CampaignInputs,
    rank: int,
    run: int,
    hists: Dict[str, Hist3],
    ws: Any,
    attempts: int,
) -> None:
    """The run's last cell reported: its delta is the two stage
    histograms, kept for the fold and checkpointed as the static loop's."""
    binmd, mdnorm = hists["binmd"], hists["mdnorm"]
    with state.lock:
        state.deltas[run] = RunDelta(run, binmd.signal, binmd.error_sq,
                                     mdnorm.signal)
    done = done_disposition(
        state.ckpt, run, binmd, mdnorm, attempts=attempts, rank=rank,
        monitor=c.monitor, events=n_events(ws),
    )
    with state.lock:
        state.dispositions[run] = done


def _quarantine(
    state: _StealState,
    run: int,
    exc: _faults.RetryExhaustedError,
    rank: int,
    monitor: Any,
) -> None:
    """Drop the run's queued and in-flight work, then record it like the
    static loop does (once, whichever of its cells failed first)."""
    with state.lock:
        if state.queue.is_quarantined(run):
            return
        state.queue.drop_run(run)
        state.stage_hists.pop(run, None)
        state.workspaces.pop(run, None)
    disposition = quarantine_disposition(state.ckpt, run, exc, rank=rank,
                                         monitor=monitor)
    with state.lock:
        state.dispositions[run] = disposition
