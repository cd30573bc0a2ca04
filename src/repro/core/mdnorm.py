"""MDNorm: trajectory normalization over (symmetry op x detector).

The paper's Listing 1: a 2-D index space of ``(symmetry op, detector)``.
Each lane

1. forms its trajectory direction ``D = T_op (z_hat - d_hat)``,
2. clips the momentum window to the grid box,
3. collects every grid-plane crossing in that window
   ("calculate intersections ~(600x600x1)"),
4. **sorts** them (comb sort in the element body — in-kernel,
   allocation-free; the batch kernel row-sorts with ``ndarray.sort`` by
   default, which yields the same values),
5. **linearly interpolates** the cumulative incident flux over each
   sub-segment, and
6. **appends** ``solid_angle x flux`` into the normalization histogram.

Step 3's buffer is sized by the step itself: the batch kernel's fill
takes each tile's width from the crossing counts it computes anyway
(:func:`repro.core.intersections.fill_crossings_batch`), and the
element bodies use the grid's ``hBins+kBins+lBins+2`` bound
(:attr:`HKLGrid.max_plane_crossings`), so the reduction runs no
separate counting pass.

:func:`max_intersections` is MiniVATES's pre-pass, run by the device
proxy (:mod:`repro.proxy.minivates`), which must size its device buffer
before the kernel runs and passes the result as ``mdnorm(width=...)``.
JACC's device ``parallel_reduce`` supports only ``+`` (the limitation
the paper documents), so on the device back end the MAX is computed
with the same workaround MiniVATES uses: a counting kernel, a
device->host copy, and a host-side max; the CPU back ends use the
elegant ``parallel_reduce(op="max")`` directly.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.combsort import comb_sort
from repro.core.geom_cache import DepositPlan, GeomCache, GeomEntry
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.intersections import (
    count_crossings_batch,
    count_crossings_scalar,
    fill_crossings_scalar,
    k_window,
    sorted_crossings_batch,
    trajectory_directions,
)
from repro.jacc import get_backend, parallel_for
from repro.jacc.api import default_backend
from repro.jacc.kernels import Captures, Kernel
from repro.nexus.corrections import FluxSpectrum
from repro.util import trace as _trace
from repro.util.validation import require

#: trajectories per device tile in the main MDNorm kernel
DEFAULT_TILE_ROWS = 8192


class _Scratch:
    """Per-thread preallocated intersection buffers (no allocation in
    the kernel body, as in MiniVATES).

    Cross-call reuse safety: a ``_Scratch`` must never be stored in the
    geometry cache or any other structure that outlives one ``mdnorm``
    call — its buffers are *uninitialized working memory*, not results.
    ``mdnorm`` constructs a fresh instance per call, and ``get``
    re-allocates whenever a thread's existing buffer is narrower than
    the requested width, so even an (incorrectly) retained instance can
    never hand a kernel a buffer too small for the current grid — the
    latent overflow this guarded against is exercised by
    ``tests/core/test_geom_cache.py::TestScratchSafety``.
    """

    def __init__(self, width: int) -> None:
        self.width = int(width)
        self._local = threading.local()

    def __reduce__(self):
        # ``threading.local`` cannot cross a process boundary; a fresh
        # scratch of the same width is the correct rebuild — the buffers
        # are uninitialized working memory, not state (this is how the
        # multiprocess back end ships mdnorm captures to its workers).
        return (_Scratch, (self.width,))

    def get(self) -> np.ndarray:
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.size < self.width:
            buf = np.empty(self.width, dtype=np.float64)
            self._local.buf = buf
        return buf


def _interp_cumulative(flux_k: np.ndarray, flux_cum: np.ndarray, k: float) -> float:
    """Scalar linear interpolation of the cumulative flux table."""
    if k <= flux_k[0]:
        return float(flux_cum[0])
    if k >= flux_k[-1]:
        return float(flux_cum[-1])
    j = int(np.searchsorted(flux_k, k)) - 1
    t = (k - flux_k[j]) / (flux_k[j + 1] - flux_k[j])
    return float(flux_cum[j] + t * (flux_cum[j + 1] - flux_cum[j]))


# ---------------------------------------------------------------------------
# pre-pass: maximum intersections per trajectory
# ---------------------------------------------------------------------------

def _count_element(ctx: Captures, n: int, d: int) -> float:
    direction = ctx.directions[n, d]
    lo = ctx.k_lo[n, d]
    hi = ctx.k_hi[n, d]
    return float(count_crossings_scalar(direction, ctx.grid, lo, hi))


def _count_batch(ctx: Captures, dims: tuple[int, int]) -> np.ndarray:
    return count_crossings_batch(
        ctx.directions, ctx.grid, ctx.k_lo, ctx.k_hi
    ).astype(np.float64)


COUNT_KERNEL = Kernel(name="mdnorm_count", element=_count_element, batch=_count_batch)


def _count_store_batch(ctx: Captures, dims: tuple[int, int]) -> None:
    ctx.counts[...] = count_crossings_batch(ctx.directions, ctx.grid, ctx.k_lo, ctx.k_hi)


COUNT_STORE_KERNEL = Kernel(
    name="mdnorm_count_store",
    element=lambda ctx, n, d: None,  # device-only helper
    batch=_count_store_batch,
)


def max_intersections(
    grid: HKLGrid,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    momentum_band: tuple[float, float],
    *,
    backend: Optional[str] = None,
    use_extended_reduce: bool = False,
) -> int:
    """Upper bound on per-trajectory intersections (+2 endpoints).

    On CPU back ends this is one ``parallel_reduce(op="max")``.  The
    device back end cannot reduce with MAX (JACC limitation), so there
    it launches a counting ``parallel_for`` into a device array, copies
    it to the host, and maxes there — the documented MiniVATES
    workaround, with the device->host transfer really happening (and
    counted by the back end's transfer statistics).

    ``use_extended_reduce=True`` opts into
    :func:`repro.jacc.reduction.device_reduce` — the custom-operator
    device reduction the paper lists as hoped-for future work — which
    removes the per-lane device->host copy entirely.
    """
    be = get_backend(backend) if backend else default_backend()
    directions = trajectory_directions(transforms, det_directions)
    k_lo, k_hi = k_window(directions, grid, *momentum_band)
    dims = directions.shape[:2]
    tracer = _trace.active_tracer()
    with tracer.span("mdnorm.prepass", kind="phase", backend=be.name) as sp:
        if tracer.profile:
            from repro.util.perf import prepass_work

            sp.set(perf=prepass_work(dims[0] * dims[1]))
        if be.device_kind == "device" and use_extended_reduce:
            from repro.jacc.reduction import device_reduce

            captures = Captures(directions=directions, grid=grid, k_lo=k_lo, k_hi=k_hi)
            max_count = int(device_reduce(dims, COUNT_KERNEL, captures, op="max",
                                          backend=be.name))
        elif be.device_kind == "device":
            counts_dev = be.to_device(np.zeros(dims[0] * dims[1], dtype=np.int64))
            captures = Captures(
                directions=directions, grid=grid, k_lo=k_lo, k_hi=k_hi, counts=counts_dev
            )
            be.parallel_for(dims, COUNT_STORE_KERNEL, captures)
            counts_host = be.to_host(counts_dev)  # the workaround's D2H copy
            max_count = int(counts_host.max(initial=0))
        else:
            captures = Captures(directions=directions, grid=grid, k_lo=k_lo, k_hi=k_hi)
            max_count = int(be.parallel_reduce(dims, COUNT_KERNEL, captures, op="max"))
        sp.set(max_intersections=max_count + 2)
    tracer.count("mdnorm.prepass_trajectories", dims[0] * dims[1])
    return max_count + 2


# ---------------------------------------------------------------------------
# main MDNorm kernel
# ---------------------------------------------------------------------------

def _mdnorm_element(ctx: Captures, n: int, d: int) -> None:
    """Listing 1's per-(op, detector) body."""
    direction = ctx.directions[n, d]
    lo = ctx.k_lo[n, d]
    hi = ctx.k_hi[n, d]
    if not hi > lo:
        return
    buf = ctx.scratch.get()
    count = ctx.fill(buf, direction, ctx.grid, lo, hi)
    comb_sort(buf, count)
    weight_det = ctx.solid_angles[d] * ctx.charge
    if weight_det == 0.0:
        return
    flux_k, flux_cum = ctx.flux_k, ctx.flux_cum
    d0, d1, d2 = float(direction[0]), float(direction[1]), float(direction[2])
    phi_lo = _interp_cumulative(flux_k, flux_cum, buf[0])
    for j in range(count - 1):
        a = buf[j]
        b = buf[j + 1]
        phi_hi = _interp_cumulative(flux_k, flux_cum, b)
        if b > a:
            mid = 0.5 * (a + b)
            w = (phi_hi - phi_lo) * weight_det
            if w != 0.0:
                ctx.hist.push(mid * d0, mid * d1, mid * d2, w)
        phi_lo = phi_hi


def _live_rows(
    directions: np.ndarray, k_lo: np.ndarray, k_hi: np.ndarray,
    det_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stream compaction: trajectories that never enter the grid box (or
    carry zero weight) do no work — their lanes are dropped up front
    instead of padded through the sort and interpolation stages.
    Returns the ``live`` mask and the compacted inputs."""
    live = (k_hi > k_lo) & (det_w != 0.0)
    return live, directions[live], k_lo[live], k_hi[live], det_w[live]


def _index_dtype(n: int) -> type:
    """The narrowest of int32/int64 holding indices below ``n`` (deposit
    plans store indices at this width; the values are unchanged)."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _segments(
    directions: np.ndarray,
    k_lo: np.ndarray,
    k_hi: np.ndarray,
    grid: HKLGrid,
    flux_k: np.ndarray,
    flux_cum: np.ndarray,
    width: Optional[int],
    sort_impl: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Listing 1's steps 3-5 for a block of live trajectories.

    Returns ``(row, seg_flux, flat_idx, width)``: every non-empty
    segment whose midpoint bins inside the grid, in row-major order
    (``row`` indexes the block), and the padded width the block was
    filled at (``width`` None: the fill's own ``2 + max crossings``).
    Only those segments are interpolated and binned, so the values do
    not depend on the padded width, and rows are independent, so any
    row block of the same trajectories yields the same values bit for
    bit.
    """
    padded = sorted_crossings_batch(
        directions, grid, k_lo, k_hi, width, sort_impl=sort_impl,
    )
    width = padded.shape[1]
    # non-empty segments in row-major order (``np.nonzero`` order), as
    # flat positions of their lower end in the padded buffer
    k = np.flatnonzero(padded[:, 1:] > padded[:, :-1])
    row = k // (width - 1)
    pos = k + row
    values = padded.reshape(-1)
    lo = values[pos]
    hi = values[pos + 1]
    # Within a row the non-empty segments tile [k_lo, k_hi]: each one
    # starts on the value the previous one ended on (only empty
    # segments lie between), so its lower flux is that segment's upper
    # one, bit for bit.  Only a row's first segment interpolates twice.
    phi_hi = np.interp(hi, flux_k, flux_cum)
    phi_lo = np.empty_like(phi_hi)
    phi_lo[1:] = phi_hi[:-1]
    first = np.ones(row.size, dtype=bool)
    np.not_equal(row[1:], row[:-1], out=first[1:])
    phi_lo[first] = np.interp(lo[first], flux_k, flux_cum)
    seg_flux = phi_hi - phi_lo
    mid = 0.5 * (lo + hi)
    flat_idx, inside = grid.bin_index(mid[:, None] * directions[row])
    if inside.all():
        return row, seg_flux, flat_idx, width
    return row[inside], seg_flux[inside], flat_idx[inside], width


def _deposits(
    row: np.ndarray, seg_flux: np.ndarray, flat_idx: np.ndarray,
    det_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 6's ``(flat_idx, weight)`` deposits of a block of segments,
    in scatter order; ``det_w`` is indexed by ``row``."""
    weights = seg_flux * det_w[row]
    keep = weights != 0.0
    if keep.all():
        return flat_idx, weights
    return flat_idx[keep], weights[keep]


def _mdnorm_batch(ctx: Captures, dims: tuple[int, int]) -> None:
    """Device realization: stream-compacted rows, lane-parallel row
    sort, flux interpolation of the non-empty segments only, atomic
    scatter-add.

    When the geometry cache holds a :class:`DepositPlan` for this
    configuration the fill/sort/interpolate/bin-search pipeline is
    skipped entirely: the warm path multiplies the cached per-segment
    fluxes by ``solid_angle x charge`` and scatter-adds.  The stored
    segments are split at the cold pass's row tiles, so the warm
    scatter sequence (and each ``buffered`` tile sum) is the cold one
    bit for bit.

    ``ctx.width`` None lets every tile's fill size its own buffer.
    Records ``ctx.live_segments`` (segments deposited from, before the
    zero-weight drop), ``ctx.segment_slots`` (padded slots filled) and
    ``ctx.fill_width`` (the widest tile buffer; both 0 on a warm
    launch) for the op span.
    """
    n_ops, n_det = dims
    grid: HKLGrid = ctx.grid
    target = ctx.hist.flat_signal
    # per-trajectory weight: solid angle of the detector (tiled over ops)
    det_w = np.broadcast_to(ctx.solid_angles, (n_ops, n_det)).reshape(-1) * ctx.charge
    tile = ctx.tile_rows
    ctx.live_segments = ctx.segment_slots = ctx.fill_width = 0

    entry: Optional[GeomEntry] = getattr(ctx, "geom_entry", None)
    use_plan: bool = getattr(ctx, "use_plan", False)
    plan = entry.deposit if (entry is not None and use_plan) else None

    if plan is not None:
        # ---- warm path: cached segment fluxes + bin indices ----------
        det_w_live = det_w[plan.live]
        n_rows = det_w_live.size
        cuts = np.searchsorted(plan.row, np.arange(0, n_rows + tile, tile))
        for a, b in zip(cuts[:-1], cuts[1:]):
            idx, weights = _deposits(
                plan.row[a:b], plan.seg_flux[a:b], plan.flat_idx[a:b],
                det_w_live,
            )
            Hist3._scatter(target, idx, weights, ctx.scatter_impl)
        ctx.live_segments = plan.n_segments
        return

    live, directions, k_lo, k_hi, det_w = _live_rows(
        ctx.directions.reshape(-1, 3), ctx.k_lo.reshape(-1),
        ctx.k_hi.reshape(-1), det_w,
    )
    n_rows = directions.shape[0]
    if n_rows == 0:
        return

    # collect the deposit plan alongside the cold pass
    collect = use_plan and entry is not None
    parts = []
    for start in range(0, n_rows, tile):
        stop = min(start + tile, n_rows)
        row, seg_flux, flat_idx, width = _segments(
            directions[start:stop], k_lo[start:stop], k_hi[start:stop],
            grid, ctx.flux_k, ctx.flux_cum, ctx.width, ctx.sort_impl,
        )
        ctx.live_segments += row.size
        ctx.segment_slots += (stop - start) * (width - 1)
        ctx.fill_width = max(ctx.fill_width, width)
        if collect:
            parts.append((row + start, seg_flux, flat_idx))
        idx, weights = _deposits(row, seg_flux, flat_idx, det_w[start:stop])
        Hist3._scatter(target, idx, weights, ctx.scatter_impl)

    if collect:
        row, seg_flux, flat_idx = (np.concatenate(p) for p in zip(*parts))
        plan = DepositPlan(
            live=_gc.freeze(live),
            row=_gc.freeze(row.astype(_index_dtype(n_rows))),
            seg_flux=_gc.freeze(seg_flux),
            flat_idx=_gc.freeze(flat_idx.astype(_index_dtype(grid.n_bins_total))),
        )
        if ctx.geom_cache.accepts(plan.nbytes):
            entry.deposit = plan
            ctx.geom_cache.note_update(entry)


def mdnorm_deposits(
    ctx: Captures, a: int, b: int
) -> List[tuple[np.ndarray, np.ndarray, None]]:
    """The batch kernel's deposit logs over detectors ``[a, b)``: one
    ``(flat_idx, weight, None)`` per op, in scatter order.

    Same stream compaction and segment math as the cold path of
    :func:`_mdnorm_batch`, over every op at once, returned instead of
    scattered.  Logs taken op-major over ascending contiguous detector
    ranges concatenate to that kernel's exact deposit sequence, so
    replaying them with ``np.add.at`` is bit-identical to the unsharded
    batch kernel.  ``ctx`` carries ``grid``, ``directions``, ``k_lo``,
    ``k_hi``, ``solid_angles``, ``charge``, ``flux_k`` and
    ``flux_cum``; each tile's fill sizes its own buffer.
    """
    n_ops = ctx.directions.shape[0]
    det_w = np.broadcast_to(ctx.solid_angles[a:b], (n_ops, b - a)).reshape(-1)
    live, directions, k_lo, k_hi, det_w = _live_rows(
        ctx.directions[:, a:b].reshape(-1, 3), ctx.k_lo[:, a:b].reshape(-1),
        ctx.k_hi[:, a:b].reshape(-1), det_w * ctx.charge,
    )
    parts = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64))]
    for start in range(0, directions.shape[0], DEFAULT_TILE_ROWS):
        stop = start + DEFAULT_TILE_ROWS
        row, seg_flux, flat_idx, _ = _segments(
            directions[start:stop], k_lo[start:stop], k_hi[start:stop],
            ctx.grid, ctx.flux_k, ctx.flux_cum, None, "library",
        )
        parts.append((row + start, seg_flux, flat_idx))
    row, seg_flux, flat_idx = (np.concatenate(p) for p in zip(*parts))
    # live rows are op-major: cut the segments at each op's first row
    op_rows = np.concatenate(([0], np.cumsum(live.reshape(n_ops, -1).sum(axis=1))))
    cuts = np.searchsorted(row, op_rows)
    return [
        (*_deposits(row[c0:c1], seg_flux[c0:c1], flat_idx[c0:c1], det_w), None)
        for c0, c1 in zip(cuts[:-1], cuts[1:])
    ]


MDNORM_KERNEL = Kernel(name="mdnorm", element=_mdnorm_element, batch=_mdnorm_batch)


def mdnorm_geometry(
    grid: HKLGrid,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    momentum_band: tuple[float, float],
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    cache: GeomCache,
    cache_tag: Optional[str] = None,
    *,
    peek: bool = False,
) -> Tuple[GeomEntry, bool, np.ndarray, np.ndarray]:
    """MDNorm's geometry stage through the cache, shared by every MDNorm
    path (:func:`mdnorm`, the shard captures, :func:`prefetch_geometry`).

    Returns ``(entry, hit, flux_k, flux_cum)``: ``entry`` holds the
    (read-only) trajectory directions and clipped momentum windows.  On
    a miss they are computed and ``entry`` is put in the cache, which a
    disabled cache ignores.  ``peek`` looks the key up without counting
    a hit or miss.
    """
    key = None
    if cache.enabled:
        key = GeomCache.geometry_key(
            grid, transforms, det_directions, momentum_band, solid_angles, flux
        )
        entry = cache.peek(key) if peek else cache.get(key)
        if entry is not None:
            return (entry, True, *cache.flux_table(flux))
    directions = trajectory_directions(transforms, det_directions)
    k_lo, k_hi = k_window(directions, grid, *momentum_band)
    entry = GeomEntry(
        key=key,
        tag=cache_tag,
        directions=_gc.freeze(directions),
        k_lo=_gc.freeze(k_lo),
        k_hi=_gc.freeze(k_hi),
    )
    cache.put(entry)
    return (entry, False, *cache.flux_table(flux))


def mdnorm(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    charge: float = 1.0,
    backend: Optional[str] = None,
    sort_impl: str = "library",
    scatter_impl: str = "atomic",
    tile_rows: int = DEFAULT_TILE_ROWS,
    width: Optional[int] = None,
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
) -> Hist3:
    """Accumulate the normalization for one run into ``hist``.

    Parameters
    ----------
    hist:
        Normalization histogram (accumulated in place, also returned).
    transforms:
        ``(n_ops, 3, 3)`` Q_lab -> grid matrices *including* the run's
        goniometer (``HKLGrid.transforms_for(..., goniometer=R)``).
    det_directions:
        ``(n_det, 3)`` unit vectors sample -> pixel.
    solid_angles:
        ``(n_det,)`` per-detector solid angle x efficiency (the
        vanadium weights).
    flux:
        Incident flux spectrum; its cumulative integral is linearly
        interpolated over each trajectory segment.
    momentum_band:
        Accepted ``(k_min, k_max)`` of the run.
    charge:
        The run's proton charge (scales the flux).
    sort_impl:
        Row sort of the batch kernel: "library" (``ndarray.sort``, the
        default) or "comb" (the paper's in-kernel comb sort, kept for
        the Fig. 2 ablation).  Both give the same sorted values, so the
        histogram is identical; the element bodies always comb-sort.
    scatter_impl:
        "atomic" or "buffered" histogram accumulation (device back end
        only; see :meth:`Hist3.push_many`).
    width:
        Padded intersection-buffer width.  None (the default) lets the
        batch kernel size each tile's buffer from its own crossing
        counts and the element bodies use the grid's plane-count bound;
        an explicit width (the MiniVATES proxy passes its pre-pass
        result) is used for every tile and raises ``ValueError`` where
        a trajectory has more crossings.  The histogram, and the
        cached deposit plan, never depend on it.
    cache:
        Geometry cache; None uses the process default
        (:func:`repro.core.geom_cache.default_cache`), pass
        :data:`repro.core.geom_cache.DISABLED` to opt out.  Cached and
        uncached calls are bit-identical on every back end.
    cache_tag:
        Optional lifecycle tag recorded on new cache entries (e.g.
        ``"run:42"``) for targeted invalidation.
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
    require(sort_impl in ("comb", "library"), "sort_impl must be comb|library")

    grid = hist.grid
    cache = _gc.resolve(cache)
    tracer = _trace.active_tracer()
    with tracer.span(
        "mdnorm",
        kind="op",
        backend=backend or "default",
        n_ops=int(transforms.shape[0]),
        n_det=int(det_directions.shape[0]),
        sort_impl=sort_impl,
    ) as op_span:
        entry, hit, flux_k, flux_cum = mdnorm_geometry(
            grid, transforms, det_directions, momentum_band, solid_angles,
            flux, cache, cache_tag,
        )
        if width is not None:
            width = min(int(width), grid.max_plane_crossings)
        # The deposit plan is never built at charge 0 (the
        # stream-compaction mask would degenerate and no longer be
        # charge-independent).
        use_plan = cache.enabled and charge != 0.0
        warm_plan = use_plan and entry.deposit is not None
        plan_bytes = entry.deposit.nbytes if warm_plan else None
        op_span.set(cache_hit=hit, warm_plan=warm_plan)
        scratch_width = grid.max_plane_crossings if width is None else width
        captures = Captures(
            hist=hist,
            grid=grid,
            directions=entry.directions,
            k_lo=entry.k_lo,
            k_hi=entry.k_hi,
            solid_angles=solid_angles,
            charge=float(charge),
            flux_k=flux_k,
            flux_cum=flux_cum,
            scratch=_Scratch(scratch_width),
            fill=fill_crossings_scalar,
            width=width,
            tile_rows=int(tile_rows),
            sort_impl=sort_impl,
            scatter_impl=scatter_impl,
            geom_entry=entry,
            geom_cache=cache,
            use_plan=use_plan,
        )
        parallel_for(entry.directions.shape[:2], MDNORM_KERNEL, captures,
                     backend=backend)
        # the batch kernel reports the segments it actually deposited
        # from and the widest buffer it filled; the element bodies leave
        # the cost model their scratch width as a padded bound
        segments = getattr(captures, "live_segments", None)
        fill_width = scratch_width
        if segments is not None:
            fill_width = captures.fill_width
            op_span.set(live_segments=segments,
                        segment_slots=captures.segment_slots)
        op_span.set(width=int(fill_width))
        if tracer.profile:
            from repro.util.perf import mdnorm_work

            op_span.set(perf=mdnorm_work(
                int(transforms.shape[0]), int(det_directions.shape[0]),
                int(fill_width), warm_plan=warm_plan, segments=segments,
                plan_bytes=plan_bytes,
            ))
        tracer.count("mdnorm.trajectories",
                      int(transforms.shape[0]) * int(det_directions.shape[0]))
    return hist


def prefetch_geometry(
    grid: HKLGrid,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    momentum_band: tuple[float, float],
    solid_angles: np.ndarray,
    flux,
    *,
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
) -> bool:
    """Warm the geometry cache for one run without depositing anything.

    Runs the trajectory/window stages and stores the results (plus the
    flux table) so a later :func:`mdnorm` on the same configuration
    starts warm.  Returns True when a new entry was inserted, False
    when the key was already cached or caching is off.
    """
    cache = _gc.resolve(cache)
    if not cache.enabled:
        return False
    with _trace.active_tracer().span(
        "mdnorm.prefetch", kind="phase", tag=cache_tag or ""
    ):
        entry, hit, _, _ = mdnorm_geometry(
            grid,
            np.asarray(transforms, dtype=np.float64),
            np.asarray(det_directions, dtype=np.float64),
            momentum_band,
            np.asarray(solid_angles, dtype=np.float64),
            flux, cache, cache_tag, peek=True,
        )
    return not hit and cache.peek(entry.key) is entry
