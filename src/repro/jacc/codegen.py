"""Plan-time source generation for the fused MDNorm kernel.

The paper's JACC layer wins by keeping the intersections -> sort ->
deposit pipeline on-device; the vectorized back end still runs those
stages through a generic batch body with per-call Python dispatch, a
Python-loop comb sort, and a freshly allocated padded buffer per tile.
This module closes that gap the way the MC/DC Numba-JIT portability
work does (PAPERS.md): **specialize one fused kernel per plan
configuration** — instrument grid geometry, symmetry-op count, scatter
implementation, event codec — and emit it as a self-contained NumPy
source module that

* folds the grid constants (minimum / bin widths / bin counts and the
  flat-index strides) into the kernel body, eliminating the
  ``(rows, width - 1, 3)`` coordinate intermediate the generic
  ``HKLGrid.bin_index`` materializes;
* row-sorts the padded crossing buffer with NumPy's C sort.  Comb sort
  and the library sort produce the same ascending value sequence for
  every row (the multiset is identical and the buffers are NaN-free;
  only the placement of ``-0.0`` vs ``+0.0`` can differ, which is
  invisible to every downstream consumer: interpolation, midpoints,
  ``>`` masks and the ``weights != 0`` deposit gate), so the fused
  kernel is **bit-identical** to the vectorized cold path while
  skipping its Python-pass comb sort;
* reuses one thread-local padded buffer across tiles *and* launches
  (``fill_crossings_batch(out=...)``), so warm execution allocates
  nothing proportional to the pre-pass bound;
* replicates the :class:`~repro.core.geom_cache.DepositPlan` warm path
  and cold-pass plan collection exactly, so the geometry cache is
  shared transparently with every other back end.

Determinism: bit-identical.  The emitted kernel performs the same
floating-point operations in the same order as
``repro.core.mdnorm._mdnorm_batch`` (same tiling, same row-major
``np.add.at`` / ``bincount`` deposit sequence), which is what lets the
conformance matrix and the differential pipeline suite demand
bit-identity rather than tolerances.

The *identity* of a specialization is :class:`FusedPlanConfig`; its
canonical JSON plus :data:`CODEGEN_VERSION` is what
:mod:`repro.jacc.artifact_cache` digests.  Scheduling knobs — padded
width, tile rows, shard/worker counts, steal seeds — are deliberately
not part of the identity: one artifact serves every schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

#: Bump whenever :func:`generate_fused_source` changes the emitted code
#: in any way.  The artifact digest folds this in, so stale on-disk
#: artifacts from an older generator are never loaded — they simply
#: miss and are regenerated (no invalidation pass required).
CODEGEN_VERSION = 1


@dataclass(frozen=True)
class FusedPlanConfig:
    """Everything that selects one specialized fused kernel.

    Two plans with equal configs share one artifact; anything that
    changes the emitted code must appear here.  Scheduling knobs
    (padded width, ``tile_rows``, shard counts, worker counts) are
    excluded on purpose — the kernel reads them from its captures at
    launch time, so the same compiled artifact serves every schedule
    (property-tested in ``tests/jacc/test_artifact_cache.py``).
    """

    #: grid basis as nested row tuples (part of the instrument identity)
    grid_basis: Tuple[Tuple[float, float, float], ...]
    grid_minimum: Tuple[float, float, float]
    grid_maximum: Tuple[float, float, float]
    grid_bins: Tuple[int, int, int]
    #: symmetry-op count of the plan (the outer kernel dimension)
    n_ops: int
    #: histogram accumulation flavour ("atomic" | "buffered"), folded
    #: into the deposit statement
    scatter_impl: str
    #: event-store codec of the plan (identity only; the normalization
    #: kernel itself never touches event payloads)
    codec: str = "none"

    @classmethod
    def for_plan(
        cls, grid, n_ops: int, scatter_impl: str, codec: str = "none"
    ) -> "FusedPlanConfig":
        """Build the config for one MDNorm launch on ``grid``."""
        basis = tuple(
            tuple(float(x) for x in row) for row in grid.basis.tolist()
        )
        return cls(
            grid_basis=basis,
            grid_minimum=tuple(float(x) for x in grid.minimum),
            grid_maximum=tuple(float(x) for x in grid.maximum),
            grid_bins=tuple(int(x) for x in grid.bins),
            n_ops=int(n_ops),
            scatter_impl=str(scatter_impl),
            codec=str(codec),
        )

    def canonical_json(self) -> str:
        """Deterministic JSON form (sorted keys, exact float repr) —
        the byte string the artifact digest is computed over."""
        return json.dumps(
            {
                "grid_basis": self.grid_basis,
                "grid_minimum": self.grid_minimum,
                "grid_maximum": self.grid_maximum,
                "grid_bins": self.grid_bins,
                "n_ops": self.n_ops,
                "scatter_impl": self.scatter_impl,
                "codec": self.codec,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def _scatter_statement(scatter_impl: str) -> str:
    """The deposit statement for one tile, specialized by impl.

    Must stay semantically identical to :meth:`Hist3._scatter` — the
    vectorized back end routes through that dispatcher at run time;
    here the branch is resolved at codegen time.
    """
    if scatter_impl == "atomic":
        return "_atomic_add(target, flat_idx[deposit], weights[deposit])"
    if scatter_impl == "buffered":
        return (
            "target += _np.bincount(flat_idx[deposit].ravel(), "
            "weights=weights[deposit].ravel(), minlength=target.size)"
        )
    raise ValueError(f"unknown scatter_impl {scatter_impl!r}")


def generate_fused_source(config: FusedPlanConfig) -> str:
    """Emit the specialized fused-kernel module for ``config``.

    The module defines ``fused_mdnorm(ctx, dims)`` with the batch-body
    calling convention of :data:`repro.core.mdnorm.MDNORM_KERNEL`.  It
    must remain an exact floating-point transcription of
    ``repro.core.mdnorm._mdnorm_batch`` (same tiling, same op order,
    same deposit sequence) — the conformance matrix and the
    differential pipeline suite enforce bit-identity against the
    vectorized back end.
    """
    mn = config.grid_minimum
    mx = config.grid_maximum
    nb = config.grid_bins
    scatter = _scatter_statement(config.scatter_impl)
    # Python float repr round-trips exactly, so the folded constants
    # reconstruct the grid's minimum/maximum bit for bit; the widths are
    # recomputed with the same expression HKLGrid.widths uses, so they
    # too are bitwise identical.
    lines = [
        f"# generated by repro.jacc.codegen v{CODEGEN_VERSION} -- do not edit",
        f"# config: {config.canonical_json()}",
        '"""Fused MDNorm kernel specialized for one plan configuration."""',
        "import threading as _threading",
        "",
        "import numpy as _np",
        "",
        "from repro.core.geom_cache import DepositPlan as _DepositPlan",
        "from repro.core.intersections import fill_crossings_batch as _fill",
        "from repro.jacc.atomic import atomic_add as _atomic_add",
        "",
        f"_N_OPS = {config.n_ops}",
        f"_MIN = ({mn[0]!r}, {mn[1]!r}, {mn[2]!r})",
        f"_MAX = ({mx[0]!r}, {mx[1]!r}, {mx[2]!r})",
        f"_BINS = ({nb[0]}, {nb[1]}, {nb[2]})",
        "",
        "# bitwise-identical to HKLGrid.widths / bin_index for this grid",
        "_MN = _np.array(_MIN)",
        "_W = (_np.array(_MAX) - _np.array(_MIN)) / _np.array(_BINS)",
        "_NB = _np.array(_BINS)",
        f"_STRIDE0 = {nb[1] * nb[2]}",
        f"_STRIDE1 = {nb[2]}",
        "",
        "_TLS = _threading.local()",
        "",
        "",
        "def _buffer(rows, width):",
        "    # thread-local padded crossing buffer, grown monotonically and",
        "    # reused across tiles and launches (allocation-free warm path)",
        "    buf = getattr(_TLS, 'buf', None)",
        "    if buf is None or buf.shape[0] < rows or buf.shape[1] != width:",
        "        cap = rows if buf is None or buf.shape[1] != width \\",
        "            else max(rows, buf.shape[0])",
        "        buf = _np.empty((cap, width), dtype=_np.float64)",
        "        _TLS.buf = buf",
        "    return buf[:rows]",
        "",
        "",
        "def fused_mdnorm(ctx, dims):",
        "    n_ops, n_det = dims",
        "    target = ctx.hist.flat_signal",
        "    det_w = _np.broadcast_to(",
        "        ctx.solid_angles, (n_ops, n_det)).reshape(-1) * ctx.charge",
        "    tile = ctx.tile_rows",
        "    width = ctx.width",
        "",
        "    entry = getattr(ctx, 'geom_entry', None)",
        "    use_plan = getattr(ctx, 'use_plan', False)",
        "    plan = entry.deposit if (entry is not None and use_plan) else None",
        "    if plan is not None and plan.width != width:",
        "        plan = None",
        "",
        "    if plan is not None:",
        "        det_w_live = det_w[plan.live]",
        "        n_rows = plan.n_rows",
        "        for start in range(0, n_rows, tile):",
        "            stop = min(start + tile, n_rows)",
        "            seg_flux = plan.seg_flux[start:stop]",
        "            weights = seg_flux * det_w_live[start:stop, None]",
        "            deposit = plan.seg_ok[start:stop] & (weights != 0.0)",
        "            flat_idx = plan.flat_idx[start:stop]",
        f"            {scatter}",
        "        return",
        "",
        "    directions = ctx.directions.reshape(-1, 3)",
        "    k_lo = ctx.k_lo.reshape(-1)",
        "    k_hi = ctx.k_hi.reshape(-1)",
        "",
        "    live = (k_hi > k_lo) & (det_w != 0.0)",
        "    if not live.any():",
        "        return",
        "    directions = directions[live]",
        "    k_lo = k_lo[live]",
        "    k_hi = k_hi[live]",
        "    det_w = det_w[live]",
        "    n_rows = directions.shape[0]",
        "",
        "    collect = None",
        "    if use_plan and entry is not None:",
        "        plan_bytes = live.nbytes + n_rows * (width - 1) * (8 + 8 + 1)",
        "        if ctx.geom_cache.accepts(plan_bytes):",
        "            collect = _DepositPlan(",
        "                width=width,",
        "                live=live,",
        "                seg_flux=_np.empty((n_rows, width - 1), dtype=_np.float64),",
        "                flat_idx=_np.empty((n_rows, width - 1), dtype=_np.int64),",
        "                seg_ok=_np.empty((n_rows, width - 1), dtype=bool),",
        "            )",
        "",
        "    flux_k = ctx.flux_k",
        "    flux_cum = ctx.flux_cum",
        "    for start in range(0, n_rows, tile):",
        "        stop = min(start + tile, n_rows)",
        "        d = directions[start:stop]",
        "        padded = _fill(d, ctx.grid, k_lo[start:stop], k_hi[start:stop],",
        "                       width, out=_buffer(stop - start, width))",
        "        padded.sort(axis=1)  # C row sort, value-identical to comb",
        "        phi = _np.interp(padded, flux_k, flux_cum)",
        "        seg_lo = padded[:, :-1]",
        "        seg_hi = padded[:, 1:]",
        "        seg_flux = phi[:, 1:] - phi[:, :-1]",
        "        mid = 0.5 * (seg_lo + seg_hi)",
        "        i0 = _np.floor((mid * d[:, 0:1] - _MN[0]) / _W[0]).astype(_np.int64)",
        "        i1 = _np.floor((mid * d[:, 1:2] - _MN[1]) / _W[1]).astype(_np.int64)",
        "        i2 = _np.floor((mid * d[:, 2:3] - _MN[2]) / _W[2]).astype(_np.int64)",
        "        inside = ((i0 >= 0) & (i0 < _NB[0]) & (i1 >= 0) & (i1 < _NB[1])",
        "                  & (i2 >= 0) & (i2 < _NB[2]))",
        "        _np.clip(i0, 0, _NB[0] - 1, out=i0)",
        "        _np.clip(i1, 0, _NB[1] - 1, out=i1)",
        "        _np.clip(i2, 0, _NB[2] - 1, out=i2)",
        "        flat_idx = i0 * _STRIDE0 + i1 * _STRIDE1 + i2",
        "        weights = seg_flux * det_w[start:stop, None]",
        "        seg_ok = inside & (seg_hi > seg_lo)",
        "        deposit = seg_ok & (weights != 0.0)",
        "        if collect is not None:",
        "            collect.seg_flux[start:stop] = seg_flux",
        "            collect.flat_idx[start:stop] = flat_idx",
        "            collect.seg_ok[start:stop] = seg_ok",
        f"        {scatter}",
        "",
        "    if collect is not None:",
        "        for name in ('live', 'seg_flux', 'flat_idx', 'seg_ok'):",
        "            getattr(collect, name).flags.writeable = False",
        "        entry.deposit = collect",
        "        ctx.geom_cache.note_update(entry)",
        "",
    ]
    return "\n".join(lines)
