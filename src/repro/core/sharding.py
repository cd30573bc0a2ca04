"""Intra-run shard executor: the second level of the hierarchy.

The paper's Algorithm 1 parallelizes *across* runs (one MPI rank per
block of files), which caps strong scaling at the run count — 36 for
Benzil, 22 for Bixbyite.  This module adds the level below: a rank that
owns a run fans its MDNorm out over **detector ranges** and its BinMD
out over **event ranges** (the contiguous shards planned by
:func:`repro.mpi.decomposition.shard_ranges`), executed on the node's
persistent process pool (:data:`repro.jacc.workers.GLOBAL_POOL`) with
array captures in ``multiprocessing.shared_memory``.

Determinism argument (DESIGN.md §6f).  Kernel *element* bodies deposit
into the histogram in a fixed (op-major, index-minor) order; float
addition is non-associative, so per-shard partial histograms would
drift in the last ulp and depend on the shard count.  Shards therefore
do not accumulate — they **record**: every shard task runs the scalar
element body over ``(all ops) × (its contiguous index range)`` against
a :class:`~repro.jacc.multiproc.RecordingHist3` and returns one
deposit log *per op*.  The parent replays the logs with ``np.add.at``
(unbuffered, element-order-sequential) interleaved as

    for op in ops: for shard in ascending order: replay(log[shard][op])

Ascending contiguous shards of the inner axis, walked op-major, is
*exactly* the serial backend's iteration order — so the sharded result
is **bit-identical to the unsharded serial result for every shard
count and every worker count**, including the in-process ``workers=1``
degenerate pool (which runs the same record/replay path).

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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.binmd import _bin_events_element
from repro.core.geom_cache import GeomCache, GeomEntry
from repro.core.hist3 import Hist3
from repro.core.intersections import (
    detector_activity,
    fill_crossings_scalar,
    k_window,
    trajectory_directions,
)
from repro.core.mdnorm import _Scratch, _mdnorm_element, max_intersections
from repro.jacc.kernels import Captures
from repro.jacc.multiproc import (
    RecordingHist3,
    _close_worker_shm,
    _open_captures,
    _Transport,
    replay_deposits,
)
from repro.jacc.workers import GLOBAL_POOL, PROCS_ENV, parse_worker_count, resolve_workers
from repro.mpi.decomposition import (
    lazy_table_ranges,
    range_stored_nbytes,
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
        the shard machinery (record + replay) — results are identical
        for every value, only the fan-out width changes.
    workers:
        Process-pool size; ``None`` resolves ``REPRO_NUM_PROCS`` /
        the CPU count (validated by the shared parser).  ``1`` executes
        the shards in-process through the same record/replay path.
    balanced:
        Cut MDNorm's detector axis by per-detector *work* (live
        trajectories from :func:`repro.core.intersections.
        detector_activity`) instead of by count.  Shard boundaries
        never change the result — the replay is serial-order either
        way — only how evenly the fan-out loads the pool.
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

def _shard_body(task: Dict[str, Any], ctx: Captures,
                rec: RecordingHist3) -> List[Log]:
    element = task["element"]
    n_outer = int(task["n_outer"])
    a, b = task["range"]
    window = task.get("window")
    if window is not None:
        # out-of-core shard: the events capture is this shard's bounded
        # window, iterated with *local* indices.  The element body reads
        # ``ctx.events[j, COL_*]`` only, so local (0, b-a) iteration over
        # the window produces deposit logs bit-identical to global
        # (a, b) iteration over the full table.
        ctx = Captures(**{**vars(ctx), "events": window})
        a, b = 0, int(window.shape[0])
    logs: List[Log] = []
    for n in range(n_outer):
        for j in range(a, b):
            element(ctx, n, j)
        logs.append(rec.harvest_reset())
    return logs


def _shard_worker(task: Dict[str, Any]) -> List[Log]:
    """Run one shard's (ops × index-range) element loop in a worker."""
    ref = task.get("window_ref")
    if ref is not None:
        # shard-parallel I/O: each worker decodes only its own chunks,
        # straight from the file — the table never exists in any process
        task = dict(task, window=read_window(*ref))
    ctx, opened, hists = _open_captures(task["captures"])
    try:
        return _shard_body(task, ctx, hists["hist"])
    finally:
        ctx = None  # noqa: F841 - drop shm views before closing buffers
        _close_worker_shm(opened)


# ---------------------------------------------------------------------------
# the executor core
# ---------------------------------------------------------------------------

def _run_shards(
    op_name: str,
    captures: Captures,
    element: Callable[..., Any],
    n_outer: int,
    n_inner: int,
    shards: ShardConfig,
    *,
    run: Optional[int] = None,
    on_shard: Optional[Callable[[int, int], None]] = None,
    weights: Optional[np.ndarray] = None,
    ranges: Optional[List[Tuple[int, int]]] = None,
    lazy_events: Optional[LazyEventTable] = None,
) -> None:
    """Execute ``element`` over ``(n_outer, n_inner)`` as contiguous
    inner-axis shards, then replay the op-segmented deposit logs in
    serial order into ``captures.hist``.  ``weights`` (one per inner
    item) switches the cut to work-balanced boundaries; explicit
    ``ranges`` (chunk-aligned, possibly more than ``shards.n_shards``)
    override both.  With ``lazy_events`` the captures carry no event
    table: each shard materializes only its own bounded window — via
    the parent's budgeted tile cache in-process, or by decoding its own
    chunks from the file in pool workers."""
    hist = captures.hist
    if ranges is None:
        if weights is not None:
            ranges = weighted_shard_ranges(weights, shards.n_shards)
        else:
            ranges = shard_ranges(n_inner, shards.n_shards)
    n_ranges = len(ranges)
    workers = shards.effective_workers
    tracer = _trace.active_tracer()
    track_errors = getattr(hist, "flat_error_sq", None) is not None
    fault_site = f"shard.{op_name}"
    cancel = _cancel.current_cancel()

    with tracer.span(
        f"{op_name}.shards",
        kind="shard_fanout",
        op=op_name,
        n_shards=int(n_ranges),
        workers=int(workers),
        n_outer=int(n_outer),
        n_inner=int(n_inner),
        **({"run": int(run)} if run is not None else {}),
    ):
        per_shard: List[List[Log]] = []
        if workers == 1:
            # in-process degenerate pool: same record/replay path, no IPC
            rec = RecordingHist3(hist.grid, track_errors)
            inline_ctx = Captures(**{**vars(captures), "hist": rec})
            for s, (a, b) in enumerate(ranges):
                if cancel is not None:
                    # between shards: deposits so far are discarded and
                    # the whole run recomputes on resume (bit-identical)
                    cancel.check(f"{op_name} shard fan-out")
                with tracer.span(
                    f"shard:{op_name}", kind="shard", shard=int(s),
                    lanes=int(n_outer * (b - a)),
                ):
                    _faults.fault_point(fault_site, shard=s, run=run)
                    task = dict(element=element, n_outer=n_outer, range=(a, b))
                    if lazy_events is not None:
                        # bounded window through the run's LRU tile cache
                        task["window"] = lazy_events.window(a, b)
                    per_shard.append(_shard_body(task, inline_ctx, rec))
                if on_shard is not None:
                    on_shard(s, n_ranges)
        else:
            # the pooled path checks once before dispatch: cancelling
            # mid-collection would tear down the shared transport while
            # workers still map it, so in-flight shards run to completion
            if cancel is not None:
                cancel.check(f"{op_name} shard fan-out")
            transport = _Transport(captures)
            try:
                tasks = [
                    dict(
                        element=element,
                        n_outer=n_outer,
                        range=(a, b),
                        captures=transport.payload,
                        **(
                            {"window_ref": (
                                lazy_events.path, lazy_events.dataset_path, a, b
                            )}
                            if lazy_events is not None
                            else {}
                        ),
                    )
                    for a, b in ranges
                ]
                try:
                    pool = GLOBAL_POOL.executor(workers)
                    futures = [pool.submit(_shard_worker, t) for t in tasks]
                    for s, future in enumerate(futures):
                        with tracer.span(
                            f"shard:{op_name}", kind="shard", shard=int(s),
                            lanes=int(n_outer * (ranges[s][1] - ranges[s][0])),
                        ):
                            _faults.fault_point(fault_site, shard=s, run=run)
                            per_shard.append(future.result())
                        if on_shard is not None:
                            on_shard(s, n_ranges)
                except BrokenProcessPool as exc:
                    GLOBAL_POOL.dispose()
                    raise ShardExecutionError(
                        f"shard pool broke during {op_name} "
                        f"(run={run}, shards={shards.n_shards}); pool disposed"
                    ) from exc
            finally:
                transport.close()

        # serial-order replay: op-major, ascending contiguous shards —
        # exactly the unsharded serial iteration order, so the per-bin
        # float fold is bit-identical to the serial back end.
        for n in range(n_outer):
            replay_deposits(hist, [logs[n] for logs in per_shard])
        tracer.count(f"{op_name}.shard_tasks", len(ranges))


# ---------------------------------------------------------------------------
# shard contexts: one run-stage's captures + planned ranges, reusable by
# any executor (the static fan-out below, the stealing executor in
# repro.mpi.stealing)
# ---------------------------------------------------------------------------

def _mdnorm_captures(
    hist: Hist3,
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
    """MDNorm's geometry stage (cache-aware) packed into kernel captures.

    Shared by the static fan-out and the shard-context planner so warm
    reruns skip the geometry work identically on every executor.  The
    pre-pass ``width`` is an integer max (exactly associative), so the
    captures — and everything recorded through them — are bitwise
    independent of the ``backend`` used to compute it.
    """
    grid = hist.grid
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
        hist=hist,
        grid=grid,
        directions=directions,
        k_lo=k_lo,
        k_hi=k_hi,
        solid_angles=solid_angles,
        charge=float(charge),
        flux_k=flux_k,
        flux_cum=flux_cum,
        scratch=_Scratch(width),
        fill=fill_crossings_scalar,
    )


@dataclass
class ShardContext:
    """Everything needed to execute any planned range of one run-stage.

    ``captures.hist`` is the *target* scratch histogram: executing a
    range never touches it (ranges record deposit logs), only
    :func:`replay_shard_logs` folds the logs into it — in planned-index
    order, which is what makes results independent of which rank
    executed which range, in what order.  The captures are safe to
    share across rank threads: per-execution recording histograms are
    fresh, and mdnorm's ``_Scratch`` buffers are thread-local.
    """

    op_name: str
    captures: Captures
    element: Callable[..., Any]
    n_outer: int
    #: planned contiguous ranges of the inner axis (index = planned id)
    ranges: List[Tuple[int, int]]
    #: per-range work estimate: stored chunk bytes for lazy event
    #: tables (the PR 6 index), row counts otherwise
    weights: List[float] = field(default_factory=list)
    lazy_events: Optional[LazyEventTable] = None

    @property
    def n_ranges(self) -> int:
        return len(self.ranges)

    @property
    def track_errors(self) -> bool:
        return getattr(self.captures.hist, "flat_error_sq", None) is not None


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
) -> ShardContext:
    """Plan one run's MDNorm as detector-range shard tasks."""
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    solid_angles = np.asarray(solid_angles, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    captures = _mdnorm_captures(
        hist, transforms, det_directions, solid_angles, flux, momentum_band,
        charge=charge, backend=backend, cache=cache, cache_tag=cache_tag,
    )
    n_ops = int(transforms.shape[0])
    n_det = int(det_directions.shape[0])
    ranges = shard_ranges(n_det, n_shards)
    weights = [float(n_ops * (b - a)) for a, b in ranges]
    return ShardContext("mdnorm", captures, _mdnorm_element, n_ops,
                        ranges, weights)


def binmd_shard_context(
    hist: Hist3,
    events: EventTable | LazyEventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    n_shards: int,
) -> ShardContext:
    """Plan one run's BinMD as event-range shard tasks.

    Lazy tables plan chunk-aligned, budget-capped ranges weighted by
    stored chunk bytes (:func:`repro.mpi.decomposition.lazy_table_ranges`)
    — the same plan the static executor uses.
    """
    lazy = isinstance(events, LazyEventTable)
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    n_ops = int(transforms.shape[0])
    if lazy:
        ranges = lazy_table_ranges(events, n_shards)
        weights = range_stored_nbytes(events, ranges)
        captures = Captures(hist=hist, transforms=transforms)
        return ShardContext("binmd", captures, _bin_events_element, n_ops,
                            ranges, weights, lazy_events=events)
    data = events.data if isinstance(events, EventTable) else np.asarray(events)
    n_events = int(data.shape[0])
    ranges = shard_ranges(n_events, n_shards)
    weights = [float(n_ops * (b - a)) for a, b in ranges]
    captures = Captures(hist=hist, events=data, transforms=transforms)
    return ShardContext("binmd", captures, _bin_events_element, n_ops,
                        ranges, weights)


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
    a, b = ctx.ranges[index]
    if workers == 1:
        rec = RecordingHist3(ctx.captures.hist.grid, ctx.track_errors)
        inline_ctx = Captures(**{**vars(ctx.captures), "hist": rec})
        task = dict(element=ctx.element, n_outer=ctx.n_outer, range=(a, b))
        if ctx.lazy_events is not None:
            task["window"] = read_window(
                ctx.lazy_events.path, ctx.lazy_events.dataset_path, a, b
            )
        return _shard_body(task, inline_ctx, rec)
    transport = _Transport(ctx.captures)
    try:
        task = dict(
            element=ctx.element,
            n_outer=ctx.n_outer,
            range=(a, b),
            captures=transport.payload,
            **(
                {"window_ref": (
                    ctx.lazy_events.path, ctx.lazy_events.dataset_path, a, b
                )}
                if ctx.lazy_events is not None
                else {}
            ),
        )
        try:
            pool = GLOBAL_POOL.executor(workers)
            return pool.submit(_shard_worker, task).result()
        except BrokenProcessPool as exc:
            GLOBAL_POOL.dispose()
            raise ShardExecutionError(
                f"shard pool broke during {ctx.op_name} "
                f"(run={run}, range={index}); pool disposed"
            ) from exc
    finally:
        transport.close()


def replay_shard_logs(
    ctx: ShardContext, per_range: Sequence[List[Log]]
) -> None:
    """Fold per-range deposit logs into ``ctx.captures.hist`` in serial
    order (op-major, planned ranges ascending) — the same interleave as
    :func:`_run_shards`, so the result is bit-identical to a serial
    execution of the whole run-stage regardless of who executed what."""
    require(len(per_range) == ctx.n_ranges,
            f"{ctx.op_name}: {len(per_range)} log sets for "
            f"{ctx.n_ranges} planned ranges")
    for n in range(ctx.n_outer):
        replay_deposits(ctx.captures.hist, [logs[n] for logs in per_range])


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
    "serial")`` for every shard/worker count (see the module
    docstring).  The PR 1 geometry cache is consulted parent-side for
    trajectory directions / momentum windows / the pre-pass width, so
    warm reruns skip the geometry stage exactly as the unsharded path
    does (per-shard tasks themselves never touch the cache).
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    solid_angles = np.asarray(solid_angles, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
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
        captures = _mdnorm_captures(
            hist, transforms, det_directions, solid_angles, flux,
            momentum_band, charge=charge, backend=backend, cache=cache,
            cache_tag=cache_tag, op_span=op_span,
        )
        _run_shards(
            "mdnorm", captures, _mdnorm_element,
            int(transforms.shape[0]), int(det_directions.shape[0]),
            shards, run=run, on_shard=on_shard,
            weights=(detector_activity(captures.k_lo, captures.k_hi)
                     if shards.balanced else None),
        )
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
    to ``bin_events(..., backend="serial")`` for every shard/worker
    count.

    With a :class:`~repro.nexus.tiles.LazyEventTable` the run executes
    **out-of-core**: shard boundaries are fed from the file's chunk
    metadata (snapped to chunk boundaries, balanced by stored chunk
    bytes, capped so no window decodes more rows than the table's
    memory budget), and each shard materializes only its own window —
    via the run's tile cache in-process, or by decoding its own chunks
    from the file in pool workers.  Because the element body iterates a
    window with local indices, the deposit logs — and therefore the
    replayed histogram — stay bit-identical to the in-memory path for
    every chunk size, codec, budget, shard count and worker count.
    """
    lazy = isinstance(events, LazyEventTable)
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    if lazy:
        data = None
        n_events = events.n_events
        ranges = lazy_table_ranges(events, shards.n_shards)
    else:
        data = events.data if isinstance(events, EventTable) else np.asarray(events)
        n_events = int(data.shape[0])
        ranges = None

    tracer = _trace.active_tracer()
    with tracer.span(
        "binmd",
        kind="op",
        backend="sharded",
        n_ops=int(transforms.shape[0]),
        n_events=int(n_events),
        n_shards=int(len(ranges) if ranges is not None else shards.n_shards),
        out_of_core=bool(lazy),
    ) as op_span:
        if tracer.profile:
            from repro.util.perf import binmd_work

            op_span.set(perf=binmd_work(
                int(transforms.shape[0]), int(n_events),
                track_errors=hist.flat_error_sq is not None,
                cache_hit=False,
            ))
        if lazy:
            captures = Captures(hist=hist, transforms=transforms)
        else:
            captures = Captures(hist=hist, events=data, transforms=transforms)
        _run_shards(
            "binmd", captures, _bin_events_element,
            int(transforms.shape[0]), int(n_events),
            shards, run=run, on_shard=on_shard,
            ranges=ranges,
            lazy_events=events if lazy else None,
        )
        tracer.count("binmd.events",
                      int(transforms.shape[0]) * int(n_events))
    return hist
