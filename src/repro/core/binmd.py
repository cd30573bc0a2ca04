"""BinMD: histogram events onto the grid under every symmetry operation.

The paper's Listing 2 (C++) / Listing 3 (Julia): a 2-D index space of
``(symmetry op, event)``; each lane applies the op's transform to the
event's Q_sample coordinates and atomically pushes the event weight
into the 3-D histogram.

Both kernel forms are provided through one :class:`~repro.jacc.Kernel`:

* ``element`` — the per-(op, event) body run by the CPU back ends,
  a line-for-line analogue of Listing 3's lambda;
* ``batch`` — the device realization: per op, one array-wide
  transform + scatter-add over all events (tiled to bound memory).

Mantid's production BinMD walks an adaptive MDBox hierarchy; the paper
deliberately captures "the simple computational complexities" with a
single-box algorithm, and so do we (the hierarchy lives in
:mod:`repro.baseline.mdbox` as the baseline's cost model).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.geom_cache import BinMDEntry, GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.jacc import parallel_for
from repro.jacc.kernels import Captures, Kernel
from repro.nexus.events import COL_ERROR_SQ, COL_QX, COL_QY, COL_QZ, COL_SIGNAL, EventTable
from repro.util import trace as _trace
from repro.util.validation import require

#: events per device tile; bounds the (tile, 3) coordinate scratch
DEFAULT_TILE = 1 << 18


def _bin_events_element(ctx: Captures, n: int, i: int) -> None:
    """Listing 3's body: transform one event by one op, atomic push."""
    op = ctx.transforms[n]
    ev = ctx.events
    qx = ev[i, COL_QX]
    qy = ev[i, COL_QY]
    qz = ev[i, COL_QZ]
    c0 = op[0, 0] * qx + op[0, 1] * qy + op[0, 2] * qz
    c1 = op[1, 0] * qx + op[1, 1] * qy + op[1, 2] * qz
    c2 = op[2, 0] * qx + op[2, 1] * qy + op[2, 2] * qz
    ctx.hist.push(c0, c1, c2, ev[i, COL_SIGNAL], ev[i, COL_ERROR_SQ])


def _event_bins(
    q: np.ndarray, op_t: np.ndarray, grid: HKLGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Listing 3's math for a block of events: ``(flat_idx, inside)`` of
    ``q`` transformed by one op (``op_t`` is the op transposed).

    Every block goes through the same matrix-matrix product, so an
    event's coordinates never depend on which block it is in: a single
    row is padded to two, because numpy would otherwise take the
    matrix-vector path, whose rounding differs.
    """
    if q.shape[0] == 1:
        coords = (np.concatenate((q, q)) @ op_t)[:1]
    else:
        coords = q @ op_t
    return grid.bin_index(coords)


def _bin_events_batch(ctx: Captures, dims: tuple[int, int]) -> None:
    """Device realization: per op, one transform + scatter over events.

    With a warm :class:`BinMDEntry` the transform and bin search are
    skipped: the cached flat indices / inside masks are sliced per tile
    and scatter-added exactly as the cold pass does — the index arrays
    are independent of the tiling, so the warm scatter sequence is
    bit-identical to the cold one.
    """
    n_ops, n_events = dims
    ev = ctx.events
    q = ev[:, COL_QX : COL_QZ + 1]
    weights = ev[:, COL_SIGNAL]
    err_sq = ev[:, COL_ERROR_SQ]
    tile = ctx.tile
    hist: Hist3 = ctx.hist
    flat_signal = hist.flat_signal
    flat_err = hist.flat_error_sq
    entry: Optional[BinMDEntry] = getattr(ctx, "binmd_entry", None)
    collect: Optional[BinMDEntry] = getattr(ctx, "binmd_collect", None)

    for n in range(n_ops):
        op_t = ctx.transforms[n].T
        for start in range(0, n_events, tile):
            stop = min(start + tile, n_events)
            if entry is not None:
                flat = entry.flat_idx[n, start:stop]
                inside = entry.inside[n, start:stop]
            else:
                flat, inside = _event_bins(q[start:stop], op_t, hist.grid)
                if collect is not None:
                    collect.flat_idx[n, start:stop] = flat
                    collect.inside[n, start:stop] = inside
            idx = flat[inside]
            Hist3._scatter(
                flat_signal, idx, weights[start:stop][inside], ctx.scatter_impl
            )
            if flat_err is not None:
                Hist3._scatter(
                    flat_err, idx, err_sq[start:stop][inside], ctx.scatter_impl
                )
    if collect is not None:
        collect.flat_idx = _gc.freeze(collect.flat_idx)
        collect.inside = _gc.freeze(collect.inside)
        ctx.binmd_cache.put(collect)


def binmd_deposits(
    ctx: Captures, a: int, b: int
) -> List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """The batch kernel's deposit logs over events ``[a, b)``: one
    ``(flat_idx, weight, err_sq | None)`` per op, in scatter order.

    Logs taken op-major over ascending contiguous event ranges
    concatenate to the exact deposit sequence of
    :func:`_bin_events_batch`, so replaying them with ``np.add.at`` is
    bit-identical to the unsharded batch kernel.  ``ctx`` carries
    ``grid``, ``events``, ``transforms`` and ``track_errors``.
    """
    ev = ctx.events[a:b]
    q = ev[:, COL_QX : COL_QZ + 1]
    logs = []
    for op in ctx.transforms:
        flat, inside = _event_bins(q, op.T, ctx.grid)
        err_sq = ev[:, COL_ERROR_SQ][inside] if ctx.track_errors else None
        logs.append((flat[inside], ev[:, COL_SIGNAL][inside], err_sq))
    return logs


BIN_EVENTS_KERNEL = Kernel(
    name="bin_events",
    element=_bin_events_element,
    batch=_bin_events_batch,
)


def bin_events(
    hist: Hist3,
    events: EventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    backend: Optional[str] = None,
    tile: int = DEFAULT_TILE,
    scatter_impl: str = "atomic",
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
) -> Hist3:
    """Accumulate ``events`` into ``hist`` under every transform.

    Parameters
    ----------
    hist:
        Target histogram (accumulated in place, also returned).
    events:
        The 8-column MDEvent table.
    transforms:
        ``(n_ops, 3, 3)`` Q_sample -> grid-coordinate matrices (one per
        symmetry operation; see ``HKLGrid.transforms_for``).
    backend:
        jacc back end name; None = process default.
    scatter_impl:
        "atomic" (per-lane atomicAdd analogue) or "buffered"
        (bincount-based) — see :meth:`Hist3.push_many`.
    cache:
        Geometry cache holding/receiving the per-(op, event) flat bin
        indices (:class:`~repro.core.geom_cache.BinMDEntry`).  None uses
        the process default; pass
        :data:`~repro.core.geom_cache.DISABLED` to opt out.  The warm
        path replays the exact cold scatter sequence, so cached and
        uncached histograms are bit-identical.
    cache_tag:
        Optional lifecycle tag recorded on inserted entries (see
        :meth:`GeomCache.invalidate`).
    """
    data = events.data if isinstance(events, EventTable) else np.asarray(events)
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    require(tile > 0, "tile must be positive")

    cache = _gc.resolve(cache)
    tracer = _trace.active_tracer()
    with tracer.span(
        "binmd",
        kind="op",
        backend=backend or "default",
        n_ops=int(transforms.shape[0]),
        n_events=int(data.shape[0]),
    ) as op_span:
        entry: Optional[BinMDEntry] = None
        collect: Optional[BinMDEntry] = None
        if cache.enabled:
            n_ops, n_events = transforms.shape[0], data.shape[0]
            key = GeomCache.binmd_key(hist.grid, transforms, data)
            entry = cache.get(key)
            if entry is None and cache.accepts(n_ops * n_events * 9):
                # int64 flat index + bool inside mask per (op, event) lane
                collect = BinMDEntry(
                    key=key,
                    tag=cache_tag,
                    flat_idx=np.empty((n_ops, n_events), dtype=np.int64),
                    inside=np.empty((n_ops, n_events), dtype=bool),
                )
        op_span.set(cache_hit=entry is not None)
        if tracer.profile:
            from repro.util.perf import binmd_work

            op_span.set(perf=binmd_work(
                int(transforms.shape[0]), int(data.shape[0]),
                track_errors=hist.flat_error_sq is not None,
                cache_hit=entry is not None,
            ))

        captures = Captures(
            hist=hist,
            events=data,
            transforms=transforms,
            tile=int(tile),
            scatter_impl=scatter_impl,
            binmd_entry=entry,
            binmd_collect=collect,
            binmd_cache=cache,
        )
        parallel_for(
            (transforms.shape[0], data.shape[0]),
            BIN_EVENTS_KERNEL,
            captures,
            backend=backend,
        )
        tracer.count("binmd.events",
                      int(transforms.shape[0]) * int(data.shape[0]))
    return hist
