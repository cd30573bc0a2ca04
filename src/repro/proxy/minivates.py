"""MiniVATES: the Julia/JACC proxy on the device back end.

Reproduces the structure of MiniVATES.jl one element at a time:

* the portable :mod:`repro.core` kernels launched on the **vectorized
  ("device") back end** — the same kernels the CPU back ends run, which
  is the whole point of the JACC model;
* explicit **host -> device transfers** of the event table, detector
  geometry and vanadium weights (counted by the back end);
* the **max-intersections pre-pass** with its device -> host copy
  (JACC's ``parallel_reduce`` has no MAX — the documented workaround),
  run for every file to size the device intersection buffer before the
  MDNorm kernel launches — the only caller of
  :func:`repro.core.mdnorm.max_intersections`, since the reduction's
  batch kernel sizes its buffers itself;
* the in-kernel **comb sort** (``sort_impl="comb"``; "library" is the
  ablation alternative);
* genuine **JIT accounting**: with ``cold_start=True`` the kernel
  specialization cache is cleared before the run, so the first file
  pays compilation (the paper's "JIT" column) and later files do not
  ("no JIT").  ``StageTimings.first_call`` holds the split.

The result must match the Garnet baseline and the C++ proxy exactly;
the integration suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.binmd import bin_events
from repro.core.checkpoint import RecoveryConfig
from repro.core.cross_section import CrossSectionResult, compute_cross_section
from repro.core.geom_cache import DISABLED, GeomCache
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import MDEventWorkspace, load_md
from repro.core.mdnorm import max_intersections, mdnorm
from repro.crystal.symmetry import PointGroup
from repro.instruments.detector import DetectorArray
from repro.jacc.api import get_backend
from repro.jacc.jit import GLOBAL_JIT
from repro.mpi import Comm
from repro.nexus.corrections import read_flux_file, read_vanadium_file
from repro.nexus.events import EventTable
from repro.util import trace as _trace
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError, require

DEVICE_BACKEND = "vectorized"


@dataclass
class MiniVatesConfig:
    """Inputs of a MiniVATES run (same files as the other drivers)."""

    md_paths: Sequence[str]
    flux_path: str
    vanadium_path: str
    instrument: DetectorArray
    grid: HKLGrid
    point_group: PointGroup
    #: the paper's in-kernel sort ("comb") or the ablation ("library")
    sort_impl: str = "comb"
    #: histogram accumulation: "atomic" (per-lane atomicAdd analogue,
    #: MI100-like) or "buffered" (efficient device atomics, A100-like)
    scatter_impl: str = "atomic"
    #: clear the kernel-specialization cache first, so the first file
    #: pays JIT like a fresh Julia session.  A cold start also bypasses
    #: the geometry cache — the whole point is to measure the
    #: from-scratch pipeline (pre-pass D2H copy included).
    cold_start: bool = True
    #: geometry cache for warm (``cold_start=False``) runs; None uses
    #: the process default (ignored entirely when ``cold_start=True``)
    geom_cache: Optional[GeomCache] = None
    #: failure policy (retry/quarantine/checkpoint/resume); None =
    #: fail fast (the loop's no-op policy)
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self) -> None:
        require(len(self.md_paths) >= 1, "need at least one run file")
        require(self.sort_impl in ("comb", "library"),
                "sort_impl must be comb|library")
        require(self.scatter_impl in ("atomic", "buffered"),
                "scatter_impl must be atomic|buffered")


class MiniVatesWorkflow:
    """Algorithm 1 on the device back end with full transfer discipline."""

    def __init__(self, config: MiniVatesConfig) -> None:
        self.config = config
        self.flux = read_flux_file(config.flux_path)
        vanadium = read_vanadium_file(config.vanadium_path)
        if vanadium.n_detectors != config.instrument.n_pixels:
            raise ValidationError("vanadium / instrument pixel count mismatch")
        self._host_solid_angles = vanadium.detector_weights

    def run(
        self,
        comm: Optional[Comm] = None,
        *,
        timings: Optional[StageTimings] = None,
    ) -> CrossSectionResult:
        cfg = self.config
        paths = list(cfg.md_paths)
        device = get_backend(DEVICE_BACKEND)
        if cfg.cold_start:
            GLOBAL_JIT.clear()
        # a cold start measures the from-scratch pipeline: no memoized
        # geometry or deposit plans
        cache = DISABLED if cfg.cold_start else _gc.resolve(cfg.geom_cache)
        device.reset_counters()

        tracer = _trace.active_tracer()
        with tracer.span(
            "workflow",
            kind="workflow",
            implementation="minivates",
            n_runs=len(paths),
            backend=DEVICE_BACKEND,
            cold_start=bool(cfg.cold_start),
        ) as wf_span:
            # static geometry lives on the device for the whole run
            det_directions = device.to_device(cfg.instrument.directions)
            solid_angles = device.to_device(self._host_solid_angles)

            def load_run(i: int) -> MDEventWorkspace:
                ws = load_md(paths[i])
                # UpdateEvents ends with the H2D copy of the event table
                ws.events = EventTable(device.to_device(ws.events.data))
                return ws

            def mdnorm_impl(hist, transforms, det_directions, solid_angles,
                            flux, band, charge=1.0):
                # the device buffer is allocated before the kernel runs,
                # so its width comes from the pre-pass (D2H copy included)
                width = max_intersections(
                    cfg.grid, transforms, det_directions, band,
                    backend=DEVICE_BACKEND,
                )
                return mdnorm(
                    hist, transforms, det_directions, solid_angles, flux,
                    band, charge=charge, backend=DEVICE_BACKEND,
                    sort_impl=cfg.sort_impl, scatter_impl=cfg.scatter_impl,
                    width=width, cache=cache,
                )

            result = compute_cross_section(
                load_run=load_run,
                n_runs=len(paths),
                grid=cfg.grid,
                point_group=cfg.point_group,
                flux=self.flux,
                det_directions=det_directions,
                solid_angles=solid_angles,
                comm=comm,
                backend=DEVICE_BACKEND,
                scatter_impl=cfg.scatter_impl,
                timings=timings or StageTimings(label="minivates"),
                mdnorm_impl=mdnorm_impl,
                cache=cache,
                recovery=cfg.recovery,
            )
            if tracer.profile:
                # device transfer accounting as a profiled span: the
                # device ingests H2D bytes and emits D2H bytes, so the
                # workflow's "GB/s" row is the realized PCIe-analogue
                # transfer throughput
                wf_span.set(perf={
                    "bytes_read": float(device.bytes_h2d),
                    "bytes_written": float(device.bytes_d2h),
                })
        result.backend = "minivates"
        extras = dict(result.extras or {})
        extras.update({
            "bytes_h2d": device.bytes_h2d,
            "bytes_d2h": device.bytes_d2h,
            "kernel_launches": device.launches,
            "jit_compile_seconds": GLOBAL_JIT.total_compile_seconds(),
            "jit_compile_events": len(GLOBAL_JIT.compile_events),
        })
        result.extras = extras
        tracer.gauge("minivates.bytes_h2d", float(device.bytes_h2d))
        tracer.gauge("minivates.bytes_d2h", float(device.bytes_d2h))
        tracer.gauge("minivates.kernel_launches", float(device.launches))
        tracer.gauge(
            "minivates.jit_compile_seconds",
            float(GLOBAL_JIT.total_compile_seconds()),
        )
        return result
