"""Intra-run shard executor: the second level of the hierarchy.

The paper's Algorithm 1 parallelizes *across* runs (one MPI rank per
block of files), which caps strong scaling at the run count — 36 for
Benzil, 22 for Bixbyite.  This module adds the level below: a rank that
owns a run fans its MDNorm out over **detector ranges** and its BinMD
out over **event ranges** (the contiguous shards planned by
:func:`repro.mpi.decomposition.shard_ranges`), executed on the node's
persistent process pool (:data:`repro.jacc.workers.GLOBAL_POOL`) with
array captures in ``multiprocessing.shared_memory``.

Determinism argument (DESIGN.md §6f).  Float addition is
non-associative, so per-shard partial histograms would drift in the
last ulp and depend on the shard count.  Shards therefore do not
accumulate — they **log**: every shard task runs the kernel's batch
deposit function (:func:`repro.core.mdnorm.mdnorm_deposits` /
:func:`repro.core.binmd.binmd_deposits`) once over its contiguous
index range, which returns one ``(flat_idx, weight[, err_sq])``
deposit log *per op*.  The parent replays the logs with ``np.add.at``
(unbuffered, element-order-sequential) interleaved as

    for op in ops: for shard in ascending order: replay(log[shard][op])

Ascending contiguous shards of the inner axis, walked op-major, is
*exactly* the row-major scatter order of the single-process batch
kernel — so the sharded result is **bit-identical to the unsharded
``vectorized`` result for every shard count, worker count and
``backend``** (the back end only picks the engine of the pre-pass, an
integer max), including the in-process ``workers=1`` degenerate pool,
which runs the same log/replay path.

Fault model: a shard that dies with the pool (worker killed, e.g. OOM)
surfaces as :class:`ShardExecutionError` — an ``OSError`` subclass, so
the PR 3 run-level retry/quarantine protocol treats it as transient,
rebuilds the pool, and re-executes the *run*; checkpoints stay per-run
(a run's delta is only saved after all its shards replayed), so
kill-one-shard + resume is bit-identical to an uninterrupted campaign.
Each shard dispatch passes a :func:`repro.util.faults.fault_point`
(sites ``shard.mdnorm`` / ``shard.binmd``) and reports completion
through ``on_shard`` so the PR 4 monitor can heartbeat per shard.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.binmd import binmd_deposits
from repro.core.geom_cache import GeomCache, GeomEntry
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.intersections import (
    detector_activity,
    k_window,
    trajectory_directions,
)
from repro.core.mdnorm import max_intersections, mdnorm_deposits
from repro.jacc.kernels import Captures
from repro.jacc.chunked import replay_deposits
from repro.jacc.multiproc import _close_worker_shm, _open_captures, _Transport
from repro.jacc.workers import GLOBAL_POOL, PROCS_ENV, parse_worker_count, resolve_workers
from repro.mpi.decomposition import (
    lazy_table_ranges,
    shard_ranges,
    weighted_shard_ranges,
)
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.events import EventTable
from repro.nexus.tiles import LazyEventTable, read_window
from repro.util import cancel as _cancel
from repro.util import faults as _faults
from repro.util import trace as _trace
from repro.util.validation import require

#: one deposit log: (flat_idx, weights, err_sq|None)
Log = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


class ShardExecutionError(OSError):
    """A shard task died with its worker (pool broke mid-run).

    Subclasses ``OSError`` deliberately: the PR 3 recovery taxonomy
    (:func:`repro.util.faults.default_retryable`) treats OS-level
    resource failures as transient, so a broken pool triggers the
    run-level retry — the pool is disposed first, so the retry gets a
    fresh one.
    """


@dataclass(frozen=True)
class ShardConfig:
    """How to fan one run out across local shards.

    Parameters
    ----------
    n_shards:
        Number of contiguous shards to cut the inner axis into
        (detectors for MDNorm, events for BinMD).  ``1`` still runs
        the shard machinery (log + replay) — results are identical
        for every value, only the fan-out width changes.
    workers:
        Process-pool size; ``None`` resolves ``REPRO_NUM_PROCS`` /
        the CPU count (validated by the shared parser).  ``1`` executes
        the shards in-process through the same log/replay path.
    balanced:
        Cut MDNorm's detector axis by per-detector *work* (live
        trajectories from :func:`repro.core.intersections.
        detector_activity`) instead of by count.  Shard boundaries
        never change the result — the replay is in kernel order
        either way — only how evenly the fan-out loads the pool.
    """

    n_shards: int
    workers: Optional[int] = None
    balanced: bool = False

    def __post_init__(self) -> None:
        parse_worker_count(self.n_shards, source="n_shards")
        if self.workers is not None:
            parse_worker_count(self.workers, source="shard workers")

    @property
    def effective_workers(self) -> int:
        return resolve_workers(PROCS_ENV, self.workers)

    @classmethod
    def from_options(
        cls,
        shards: Optional[int],
        workers: Optional[int] = None,
        balanced: bool = False,
    ) -> Optional["ShardConfig"]:
        """CLI adapter: ``--shards N [--shard-workers W]``; None when
        sharding was not requested."""
        if shards is None:
            return None
        return cls(n_shards=int(shards), workers=workers, balanced=balanced)


# ---------------------------------------------------------------------------
# worker side (module-level: picklable under any start method)
# ---------------------------------------------------------------------------

def _shard_body(task: Dict[str, Any], ctx: Captures) -> List[Log]:
    """One shard's deposit logs, one per op: the kernel's batch deposit
    function (``task["element"]``) over the shard's index range."""
    deposit = task["element"]
    a, b = task["range"]
    window = task.get("window")
    if window is not None:
        # out-of-core shard: the events capture is this shard's bounded
        # window, addressed with *local* indices — the same rows as the
        # global (a, b) range of the full table, so the same logs
        ctx = Captures(**{**vars(ctx), "events": window})
        a, b = 0, int(window.shape[0])
    return deposit(ctx, a, b)


def _shard_worker(task: Dict[str, Any]) -> List[Log]:
    """Run one shard's deposit logs in a pool worker."""
    ref = task.get("window_ref")
    if ref is not None:
        # shard-parallel I/O: each worker decodes only its own chunks,
        # straight from the file — the table never exists in any process
        task = dict(task, window=read_window(*ref))
    ctx, opened, _ = _open_captures(task["captures"])
    try:
        return _shard_body(task, ctx)
    finally:
        ctx = None  # noqa: F841 - drop shm views before closing buffers
        _close_worker_shm(opened)


# ---------------------------------------------------------------------------
# shard contexts: one run-stage's captures + planned ranges, reusable by
# any executor (the static fan-out below, the stealing executor in
# repro.mpi.stealing)
# ---------------------------------------------------------------------------

@dataclass
class ShardContext:
    """Everything needed to execute any planned range of one run-stage.

    ``hist`` is the *target* scratch histogram: executing a range never
    touches it (ranges return deposit logs), only
    :func:`replay_shard_logs` folds the logs into it — in planned-index
    order, which is what makes results independent of which rank
    executed which range, in what order.  The captures are read-only
    kernel inputs, safe to share across rank threads.
    """

    op_name: str
    hist: Hist3
    captures: Captures
    #: the kernel's batch deposit function, ``deposit(ctx, a, b)``: one
    #: log per op over the inner range ``[a, b)``
    deposit: Callable[..., List[Log]]
    n_outer: int
    #: planned contiguous ranges of the inner axis (index = planned id)
    ranges: List[Tuple[int, int]]
    lazy_events: Optional[LazyEventTable] = None

    @property
    def n_ranges(self) -> int:
        return len(self.ranges)

    @property
    def n_inner(self) -> int:
        return self.ranges[-1][1] if self.ranges else 0

    def task(self, index: int, **extra: Any) -> Dict[str, Any]:
        """The shard-body task of one planned range."""
        a, b = self.ranges[index]
        return dict(element=self.deposit, n_outer=self.n_outer, range=(a, b),
                    **extra)

    def window_ref(self, index: int) -> Optional[Tuple[str, str, int, int]]:
        """:func:`read_window` arguments of a lazy range, else None."""
        if self.lazy_events is None:
            return None
        a, b = self.ranges[index]
        return (self.lazy_events.path, self.lazy_events.dataset_path, a, b)


def _mdnorm_captures(
    grid: HKLGrid,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    charge: float,
    backend: Optional[str],
    cache: Optional[GeomCache],
    cache_tag: Optional[str],
    op_span: Any = None,
) -> Captures:
    """MDNorm's geometry stage (cache-aware) packed into the captures of
    :func:`~repro.core.mdnorm.mdnorm_deposits`.

    Shared by the static fan-out and the stealing executor so warm
    reruns skip the geometry work identically on every executor.  The
    pre-pass ``width`` is an integer max (exactly associative), so the
    captures — and every log computed from them — are bitwise
    independent of the ``backend`` used to compute it.
    """
    cache = _gc.resolve(cache)
    tracer = _trace.active_tracer()
    entry: Optional[GeomEntry] = None
    key = None
    if cache.enabled:
        key = GeomCache.geometry_key(
            grid, transforms, det_directions, momentum_band, solid_angles, flux
        )
        entry = cache.get(key)
    if op_span is not None:
        op_span.set(cache_hit=entry is not None)

    if entry is not None:
        directions = entry.directions
        k_lo, k_hi = entry.k_lo, entry.k_hi
        raw_width = entry.width
    else:
        directions = trajectory_directions(transforms, det_directions)
        k_lo, k_hi = k_window(directions, grid, *momentum_band)
        raw_width = None
    if raw_width is None:
        raw_width = max_intersections(
            grid, transforms, det_directions, momentum_band,
            backend=backend, directions=directions, k_lo=k_lo, k_hi=k_hi,
        )
    width = min(raw_width, grid.max_plane_crossings)

    if cache.enabled:
        if entry is None:
            entry = GeomEntry(
                key=key,
                tag=cache_tag,
                directions=_gc.freeze(directions),
                k_lo=_gc.freeze(k_lo),
                k_hi=_gc.freeze(k_hi),
                width=raw_width,
            )
            cache.put(entry)
            directions, k_lo, k_hi = entry.directions, entry.k_lo, entry.k_hi
        elif entry.width is None:
            entry.width = raw_width
            cache.note_update(entry)

    flux_k, flux_cum = cache.flux_table(flux)
    if op_span is not None:
        op_span.set(width=int(width))
        if tracer.profile:
            from repro.util.perf import mdnorm_work

            op_span.set(perf=mdnorm_work(
                int(transforms.shape[0]), int(det_directions.shape[0]),
                int(width), warm_plan=False,
            ))

    return Captures(
        grid=grid,
        directions=directions,
        k_lo=k_lo,
        k_hi=k_hi,
        solid_angles=solid_angles,
        charge=float(charge),
        flux_k=flux_k,
        flux_cum=flux_cum,
        width=int(width),
    )


def mdnorm_shard_context(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    n_shards: int,
    charge: float = 1.0,
    backend: Optional[str] = None,
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
    balanced: bool = False,
    op_span: Any = None,
) -> ShardContext:
    """Plan one run's MDNorm as detector-range shard tasks
    (``balanced`` cuts by per-detector work, see :class:`ShardConfig`)."""
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    solid_angles = np.asarray(solid_angles, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    captures = _mdnorm_captures(
        hist.grid, transforms, det_directions, solid_angles, flux,
        momentum_band, charge=charge, backend=backend, cache=cache,
        cache_tag=cache_tag, op_span=op_span,
    )
    if balanced:
        ranges = weighted_shard_ranges(
            detector_activity(captures.k_lo, captures.k_hi), n_shards)
    else:
        ranges = shard_ranges(int(det_directions.shape[0]), n_shards)
    return ShardContext("mdnorm", hist, captures, mdnorm_deposits,
                        int(transforms.shape[0]), ranges)


def binmd_shard_context(
    hist: Hist3,
    events: EventTable | LazyEventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    n_shards: int,
) -> ShardContext:
    """Plan one run's BinMD as event-range shard tasks.

    Lazy tables plan chunk-aligned, budget-capped ranges balanced by
    stored chunk bytes (:func:`repro.mpi.decomposition.lazy_table_ranges`)
    and carry no event table: each range reads only its own window.
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    n_ops = int(transforms.shape[0])
    captures = Captures(grid=hist.grid, transforms=transforms,
                        track_errors=hist.flat_error_sq is not None)
    if isinstance(events, LazyEventTable):
        return ShardContext("binmd", hist, captures, binmd_deposits, n_ops,
                            lazy_table_ranges(events, n_shards),
                            lazy_events=events)
    data = events.data if isinstance(events, EventTable) else np.asarray(events)
    captures.events = data
    return ShardContext("binmd", hist, captures, binmd_deposits, n_ops,
                        shard_ranges(int(data.shape[0]), n_shards))


def replay_shard_logs(
    ctx: ShardContext, per_range: Sequence[List[Log]]
) -> None:
    """Fold per-range deposit logs into ``ctx.hist`` op-major, planned
    ranges ascending — the single-process batch kernel's scatter order,
    so the result is bit-identical to the unsharded ``vectorized``
    kernel regardless of who executed what."""
    require(len(per_range) == ctx.n_ranges,
            f"{ctx.op_name}: {len(per_range)} log sets for "
            f"{ctx.n_ranges} planned ranges")
    for n in range(ctx.n_outer):
        replay_deposits(ctx.hist, [logs[n] for logs in per_range])


def _broken_pool(ctx: ShardContext, run: Optional[int],
                 exc: BrokenProcessPool) -> ShardExecutionError:
    GLOBAL_POOL.dispose()
    return ShardExecutionError(
        f"shard pool broke during {ctx.op_name} "
        f"(run={run}, shards={ctx.n_ranges}); pool disposed"
    )


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------

def _run_shards(
    ctx: ShardContext,
    workers: int,
    *,
    run: Optional[int] = None,
    on_shard: Optional[Callable[[int, int], None]] = None,
) -> None:
    """The static fan-out: execute every planned range of ``ctx`` on
    ``workers`` processes, then replay the logs into ``ctx.hist``.

    In-process (``workers == 1``) lazy ranges read their window through
    the run's budgeted tile cache; pool workers decode their own chunks
    from the file."""
    op_name = ctx.op_name
    n_ranges = ctx.n_ranges
    tracer = _trace.active_tracer()
    fault_site = f"shard.{op_name}"
    cancel = _cancel.current_cancel()

    with tracer.span(
        f"{op_name}.shards",
        kind="shard_fanout",
        op=op_name,
        n_shards=int(n_ranges),
        workers=int(workers),
        n_outer=int(ctx.n_outer),
        n_inner=int(ctx.n_inner),
        exec_mode="batch",
        **({"run": int(run)} if run is not None else {}),
    ):
        def shard_span(s: int):
            a, b = ctx.ranges[s]
            return tracer.span(
                f"shard:{op_name}", kind="shard", shard=int(s),
                lanes=int(ctx.n_outer * (b - a)), exec_mode="batch",
            )

        per_shard: List[List[Log]] = []
        if workers == 1:
            # in-process degenerate pool: same log/replay path, no IPC
            for s, (a, b) in enumerate(ctx.ranges):
                if cancel is not None:
                    # between shards: deposits so far are discarded and
                    # the whole run recomputes on resume (bit-identical)
                    cancel.check(f"{op_name} shard fan-out")
                with shard_span(s):
                    _faults.fault_point(fault_site, shard=s, run=run)
                    task = ctx.task(s)
                    if ctx.lazy_events is not None:
                        # bounded window through the run's LRU tile cache
                        task["window"] = ctx.lazy_events.window(a, b)
                    per_shard.append(_shard_body(task, ctx.captures))
                if on_shard is not None:
                    on_shard(s, n_ranges)
        else:
            # the pooled path checks once before dispatch: cancelling
            # mid-collection would tear down the shared transport while
            # workers still map it, so in-flight shards run to completion
            if cancel is not None:
                cancel.check(f"{op_name} shard fan-out")
            transport = _Transport(ctx.captures)
            try:
                pool = GLOBAL_POOL.executor(workers)
                futures = [
                    pool.submit(_shard_worker, ctx.task(
                        s, captures=transport.payload,
                        window_ref=ctx.window_ref(s)))
                    for s in range(n_ranges)
                ]
                for s, future in enumerate(futures):
                    with shard_span(s):
                        _faults.fault_point(fault_site, shard=s, run=run)
                        per_shard.append(future.result())
                    if on_shard is not None:
                        on_shard(s, n_ranges)
            except BrokenProcessPool as exc:
                raise _broken_pool(ctx, run, exc) from exc
            finally:
                transport.close()

        replay_shard_logs(ctx, per_shard)
        tracer.count(f"{op_name}.shard_tasks", n_ranges)


def execute_shard_range(
    ctx: ShardContext,
    index: int,
    *,
    workers: int = 1,
    run: Optional[int] = None,
) -> List[Log]:
    """Execute one planned range of a context; return its deposit logs.

    No replay happens here — callers collect logs (possibly from ranges
    executed by different ranks, out of order) and fold them with
    :func:`replay_shard_logs` once every planned range has reported.
    ``workers > 1`` ships the single range to the node-local process
    pool (one task, so concurrency comes from concurrent *callers* —
    the stealing executor's ranks); ``workers == 1`` runs in-process.
    Lazy ranges decode their own chunks straight from the file
    (:func:`repro.nexus.tiles.read_window`) in both paths, so
    concurrent rank threads never contend on a shared tile cache.
    """
    ref = ctx.window_ref(index)
    if workers == 1:
        task = ctx.task(index)
        if ref is not None:
            task["window"] = read_window(*ref)
        return _shard_body(task, ctx.captures)
    transport = _Transport(ctx.captures)
    try:
        pool = GLOBAL_POOL.executor(workers)
        return pool.submit(_shard_worker, ctx.task(
            index, captures=transport.payload, window_ref=ref)).result()
    except BrokenProcessPool as exc:
        raise _broken_pool(ctx, run, exc) from exc
    finally:
        transport.close()


# ---------------------------------------------------------------------------
# sharded MDNorm / BinMD entry points
# ---------------------------------------------------------------------------

def sharded_mdnorm(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    shards: ShardConfig,
    charge: float = 1.0,
    backend: Optional[str] = None,
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
    run: Optional[int] = None,
    on_shard: Optional[Callable[[int, int], None]] = None,
) -> Hist3:
    """MDNorm for one run, fanned out over detector shards.

    Same contract as :func:`repro.core.mdnorm.mdnorm` (accumulates into
    ``hist`` in place) executed as ``shards.n_shards`` detector-range
    tasks; the result is bit-identical to ``mdnorm(..., backend=
    "vectorized")`` for every shard/worker count and every ``backend``
    (see the module docstring).  The geometry cache is consulted
    parent-side for trajectory directions / momentum windows / the
    pre-pass width, so warm reruns skip the geometry stage exactly as
    the unsharded path does (per-shard tasks themselves never touch the
    cache).
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    solid_angles = np.asarray(solid_angles, dtype=np.float64)
    require(det_directions.ndim == 2 and det_directions.shape[1] == 3,
            "det_directions must be (n_det, 3)")
    require(solid_angles.shape == (det_directions.shape[0],),
            "solid_angles length mismatch")

    tracer = _trace.active_tracer()
    with tracer.span(
        "mdnorm",
        kind="op",
        backend="sharded",
        n_ops=int(transforms.shape[0]),
        n_det=int(det_directions.shape[0]),
        n_shards=int(shards.n_shards),
    ) as op_span:
        ctx = mdnorm_shard_context(
            hist, transforms, det_directions, solid_angles, flux,
            momentum_band, n_shards=shards.n_shards, charge=charge,
            backend=backend, cache=cache, cache_tag=cache_tag,
            balanced=shards.balanced, op_span=op_span,
        )
        _run_shards(ctx, shards.effective_workers, run=run, on_shard=on_shard)
        tracer.count("mdnorm.trajectories",
                      int(transforms.shape[0]) * int(det_directions.shape[0]))
    return hist


def sharded_binmd(
    hist: Hist3,
    events: EventTable | LazyEventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    shards: ShardConfig,
    run: Optional[int] = None,
    on_shard: Optional[Callable[[int, int], None]] = None,
) -> Hist3:
    """BinMD for one run, fanned out over event shards.

    Same contract as :func:`repro.core.binmd.bin_events`; contiguous
    event ranges are balanced by construction (events are the unit of
    work), and the op-segmented replay makes the result bit-identical
    to ``bin_events(..., backend="vectorized")`` for every shard/worker
    count.

    With a :class:`~repro.nexus.tiles.LazyEventTable` the run executes
    **out-of-core**: shard boundaries are fed from the file's chunk
    metadata (snapped to chunk boundaries, balanced by stored chunk
    bytes, capped so no window decodes more rows than the table's
    memory budget), and each shard materializes only its own window —
    via the run's tile cache in-process, or by decoding its own chunks
    from the file in pool workers.  A window holds the same rows as the
    global range, so the deposit logs — and therefore the replayed
    histogram — stay bit-identical to the in-memory path for every
    chunk size, codec, budget, shard count and worker count.
    """
    ctx = binmd_shard_context(hist, events, transforms, n_shards=shards.n_shards)
    n_ops, n_events = ctx.n_outer, ctx.n_inner

    tracer = _trace.active_tracer()
    with tracer.span(
        "binmd",
        kind="op",
        backend="sharded",
        n_ops=int(n_ops),
        n_events=int(n_events),
        n_shards=int(ctx.n_ranges),
        out_of_core=ctx.lazy_events is not None,
    ) as op_span:
        if tracer.profile:
            from repro.util.perf import binmd_work

            op_span.set(perf=binmd_work(
                int(n_ops), int(n_events),
                track_errors=hist.flat_error_sq is not None,
                cache_hit=False,
            ))
        _run_shards(ctx, shards.effective_workers, run=run, on_shard=on_shard)
        tracer.count("binmd.events", int(n_ops) * int(n_events))
    return hist
