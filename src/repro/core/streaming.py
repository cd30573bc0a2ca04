"""Near-real-time streaming reduction.

The paper's motivation ("near-real time data processing" for IRI) and
its related work (ADARA's live streaming into Mantid) describe reducing
an experiment *while it acquires*.  This module implements that on top
of the same kernels:

* :class:`EventStream` replays a run's recorded neutrons in
  acquisition-sized batches (the stand-in for the facility's live
  event stream);
* :class:`StreamingReduction` consumes batches as they arrive:
  - when a run *opens* (metadata known: goniometer, UB, charge, band)
    its MDNorm contribution is computed once — normalization depends
    only on geometry, not on which events have arrived yet;
  - each event batch is converted and BinMD-accumulated immediately;
  - :meth:`snapshot` returns the live cross-section at any instant, so
    a scientist can watch coverage fill in and stop the measurement
    early — the steering capability the IRI program wants.

The invariant (enforced by the tests): after every batch of every run
has been consumed, the streaming cross-section equals the batch
workflow's bit for bit.

With a :class:`~repro.core.checkpoint.RecoveryConfig`, the stream
survives the live-instrument failure modes: ``open_run`` and
``consume`` retry transient faults with backoff, and a run whose
retries are exhausted is **quarantined** — its already-accumulated
MDNorm/BinMD contributions are subtracted back out of the live
histograms and its later batches are dropped, so the snapshot degrades
to the surviving runs instead of poisoning the whole stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.binmd import bin_events
from repro.core.checkpoint import RecoveryConfig
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import convert_to_md
from repro.core.mdnorm import mdnorm
from repro.core.sharding import ShardConfig, sharded_mdnorm
from repro.crystal.symmetry import PointGroup
from repro.instruments.detector import DetectorArray
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.events import RunData
from repro.nexus.h5lite import File as _File
from repro.util import faults as _faults
from repro.util import trace as _trace
from repro.util.validation import ReproError, ValidationError, require


@dataclass(frozen=True)
class StreamBatch:
    """One acquisition chunk of a run's event stream."""

    run_number: int
    detector_ids: np.ndarray
    tof: np.ndarray
    weights: np.ndarray


class EventStream:
    """Replay a recorded run as acquisition-sized batches."""

    def __init__(self, run: RunData, batch_size: int = 4096) -> None:
        require(batch_size >= 1, "batch_size must be >= 1")
        self.run = run
        self.batch_size = batch_size

    def __iter__(self) -> Iterator[StreamBatch]:
        n = self.run.n_events
        for start in range(0, n, self.batch_size):
            stop = min(start + self.batch_size, n)
            yield StreamBatch(
                run_number=self.run.run_number,
                detector_ids=self.run.detector_ids[start:stop],
                tof=self.run.tof[start:stop],
                weights=self.run.weights[start:stop],
            )

    @property
    def n_batches(self) -> int:
        return -(-self.run.n_events // self.batch_size)


class FileEventStream:
    """Replay a NeXus event file as batches without materializing it.

    The file-driven counterpart of :class:`EventStream`: run metadata is
    read eagerly (so :meth:`run_metadata` can feed ``open_run`` before a
    single event is touched), and each batch is a *region read* through
    :meth:`repro.nexus.h5lite.Dataset.read_rows`.  For files written
    with ``write_event_nexus(chunk_events=...)`` (format v2) a batch
    decodes only its overlapping chunks, so the stream's working set
    stays at batch/chunk scale regardless of run size — the out-of-core
    path for the live-reduction loop.
    """

    def __init__(self, path: "str | os.PathLike", batch_size: int = 4096) -> None:
        require(batch_size >= 1, "batch_size must be >= 1")
        self.path = os.fspath(path)
        self.batch_size = batch_size
        with _File(self.path, "r") as f:
            entry = f["entry"]
            band = entry.read("DASlogs/wavelength_band")
            ub = None
            if "sample/ub_matrix" in entry:
                ub = entry.read("sample/ub_matrix")
            self._meta = RunData(
                run_number=int(entry.read("run_number")[()]),
                detector_ids=np.empty(0, dtype=np.uint32),
                tof=np.empty(0, dtype=np.float64),
                weights=np.empty(0, dtype=np.float32),
                goniometer=entry.read("DASlogs/goniometer"),
                proton_charge=float(entry.read("proton_charge")[()]),
                wavelength_band=(float(band[0]), float(band[1])),
                instrument=str(entry.read("instrument/name")[()]),
                sample=str(entry.read("sample/name")[()]),
                ub_matrix=ub,
            )
            self.n_events = int(
                entry.require_dataset("events/detector_id").shape[0]
            )

    def run_metadata(self) -> RunData:
        """Metadata-only RunData (empty event arrays) for ``open_run``."""
        return self._meta

    @property
    def run_number(self) -> int:
        return self._meta.run_number

    @property
    def n_batches(self) -> int:
        return -(-self.n_events // self.batch_size)

    def __iter__(self) -> Iterator[StreamBatch]:
        # one open per replay: Dataset handles persist across batches so
        # chunked files keep per-batch decode bounded and contiguous
        # files verify their CRC once on first touch
        with _File(self.path, "r") as f:
            events = f["entry"]
            ids = events.require_dataset("events/detector_id")
            tof = events.require_dataset("events/time_of_flight")
            weights = events.require_dataset("events/weight")
            for start in range(0, self.n_events, self.batch_size):
                stop = min(start + self.batch_size, self.n_events)
                yield StreamBatch(
                    run_number=self._meta.run_number,
                    detector_ids=ids.read_rows(start, stop),
                    tof=tof.read_rows(start, stop),
                    weights=weights.read_rows(start, stop),
                )


class StreamingReduction:
    """Incremental Algorithm 1: reduce runs while their events arrive."""

    def __init__(
        self,
        grid: HKLGrid,
        point_group: PointGroup,
        flux: FluxSpectrum,
        instrument: DetectorArray,
        solid_angles: np.ndarray,
        *,
        backend: Optional[str] = None,
        geom_cache: Optional[GeomCache] = None,
        recovery: Optional[RecoveryConfig] = None,
        shards: Optional[ShardConfig] = None,
    ) -> None:
        self.grid = grid
        self.point_group = point_group
        self.flux = flux
        self.instrument = instrument
        self.solid_angles = np.ascontiguousarray(solid_angles, dtype=np.float64)
        require(self.solid_angles.shape == (instrument.n_pixels,),
                "solid_angles / instrument pixel count mismatch")
        self.backend = backend
        #: geometry cache reused across every batch (and re-stream) of a
        #: run — the per-run MDNorm geometry is computed at most once
        self.geom_cache = _gc.resolve(geom_cache)
        self._binmd = Hist3(grid, track_errors=True)
        self._mdnorm = Hist3(grid)
        self._open_runs: dict[int, RunData] = {}
        self._event_transforms: dict[int, np.ndarray] = {}
        self._events_seen = 0
        self._runs_opened = 0
        #: failure policy; None = historical fail-fast stream
        self.recovery = recovery
        #: intra-run fan-out for the open-run MDNorm (the geometry-only
        #: stage, computed once per run).  ``consume`` deliberately stays
        #: a single ordered pass — batch arrival order already defines
        #: the float fold, and sharding it would break the batch-size
        #: invariance the streaming tests pin down.
        self.shards = shards
        self._quarantined: Dict[int, str] = {}
        # per-run accumulated contributions, tracked only under recovery
        # so a quarantined run can be subtracted back out
        self._run_binmd: Dict[int, Hist3] = {}
        self._run_mdnorm: Dict[int, Hist3] = {}

    # -- run lifecycle ------------------------------------------------------
    def open_run(self, run_metadata: RunData) -> None:
        """Announce a run: metadata only, events may be empty/ignored.

        Computes the run's full MDNorm contribution immediately — the
        normalization is pure geometry and does not wait for events.
        """
        rn = run_metadata.run_number
        if rn in self._open_runs:
            raise ValidationError(f"run {rn} is already open")
        if run_metadata.ub_matrix is None:
            raise ValidationError(f"run {rn} carries no UB matrix")
        self._open_runs[rn] = run_metadata
        self._runs_opened += 1
        with _trace.active_tracer().span(
            "stream.open_run", kind="stream", run=int(rn)
        ):
            self._event_transforms[rn] = self.grid.transforms_for(
                run_metadata.ub_matrix, self.point_group
            )
            traj_transforms = self.grid.transforms_for(
                run_metadata.ub_matrix, self.point_group,
                goniometer=run_metadata.goniometer,
            )
            lam_lo, lam_hi = run_metadata.wavelength_band
            band = (2.0 * np.pi / lam_hi, 2.0 * np.pi / lam_lo)

            def _norm_into(target: Hist3) -> Hist3:
                if self.shards is not None:
                    sharded_mdnorm(
                        target,
                        traj_transforms,
                        self.instrument.directions,
                        self.solid_angles,
                        self.flux,
                        band,
                        shards=self.shards,
                        charge=run_metadata.proton_charge,
                        cache=self.geom_cache,
                        cache_tag=f"run:{rn}",
                        run=rn,
                    )
                else:
                    mdnorm(
                        target,
                        traj_transforms,
                        self.instrument.directions,
                        self.solid_angles,
                        self.flux,
                        band,
                        charge=run_metadata.proton_charge,
                        backend=self.backend,
                        cache=self.geom_cache,
                        cache_tag=f"run:{rn}",
                    )
                return target

            if self.recovery is None:
                # scratch-then-add: the batch loop's per-run MDNorm fold
                self._mdnorm.add(_norm_into(Hist3(self.grid)))
                return

            def attempt(_attempt: int) -> Hist3:
                _faults.fault_point("stream.open_run", run=rn)
                return _norm_into(Hist3(self.grid))

            try:
                scratch = _faults.retry_call(
                    attempt,
                    site=f"stream.open_run[{rn}]",
                    policy=self.recovery.retry,
                    retryable=self.recovery.retryable,
                    on_retry=lambda exc, a:
                        self.geom_cache.invalidate(f"run:{rn}"),
                )
            except _faults.RetryExhaustedError as exc:
                if not self.recovery.quarantine:
                    raise
                self._open_runs.pop(rn, None)
                self._event_transforms.pop(rn, None)
                self._quarantined[rn] = repr(exc.last)
                _trace.active_tracer().count("quarantine.runs")
                return
            self._mdnorm.add(scratch)
            self._run_mdnorm[rn] = scratch
            self._run_binmd[rn] = Hist3(self.grid, track_errors=True)

    def consume(self, batch: StreamBatch) -> None:
        """Accumulate one event batch into the live histogram."""
        rn = batch.run_number
        run = self._open_runs.get(rn)
        if run is None:
            if rn in self._quarantined:
                # the run died earlier; its stream keeps arriving
                _trace.active_tracer().count(
                    "stream.dropped", int(batch.detector_ids.shape[0])
                )
                return
            raise ReproError(
                f"batch for run {rn} arrived before open_run"
            )
        if batch.detector_ids.shape[0] == 0:
            return
        tracer = _trace.active_tracer()
        with tracer.span(
            "stream.consume",
            kind="stream",
            run=int(rn),
            n_events=int(batch.detector_ids.shape[0]),
        ):
            def _bin_into(target: Hist3) -> Hist3:
                partial = RunData(
                    run_number=run.run_number,
                    detector_ids=batch.detector_ids,
                    tof=batch.tof,
                    weights=batch.weights,
                    goniometer=run.goniometer,
                    proton_charge=run.proton_charge,
                    wavelength_band=run.wavelength_band,
                    ub_matrix=run.ub_matrix,
                )
                ws = convert_to_md(partial, self.instrument)
                # per-batch event tables are unique — caching their BinMD
                # indices would only churn the LRU, so opt out explicitly
                bin_events(
                    target, ws.events, self._event_transforms[rn],
                    backend=self.backend, cache=_gc.DISABLED,
                )
                return target

            if self.recovery is None:
                _bin_into(self._binmd)
            else:
                def attempt(_attempt: int) -> Hist3:
                    _faults.fault_point("stream.consume", run=rn)
                    return _bin_into(Hist3(self.grid, track_errors=True))

                try:
                    scratch = _faults.retry_call(
                        attempt,
                        site=f"stream.consume[{rn}]",
                        policy=self.recovery.retry,
                        retryable=self.recovery.retryable,
                    )
                except _faults.RetryExhaustedError as exc:
                    if not self.recovery.quarantine:
                        raise
                    self._quarantine_open_run(rn, repr(exc.last))
                    return
                self._binmd.add(scratch)
                self._run_binmd[rn].add(scratch)
        tracer.count("stream.events", int(batch.detector_ids.shape[0]))
        self._events_seen += batch.detector_ids.shape[0]

    def _quarantine_open_run(self, rn: int, reason: str) -> None:
        """Evict a live run: subtract its contributions, drop its state."""
        binmd_part = self._run_binmd.pop(rn, None)
        mdnorm_part = self._run_mdnorm.pop(rn, None)
        if binmd_part is not None:
            self._binmd.signal -= binmd_part.signal
            if (self._binmd.error_sq is not None
                    and binmd_part.error_sq is not None):
                self._binmd.error_sq -= binmd_part.error_sq
        if mdnorm_part is not None:
            self._mdnorm.signal -= mdnorm_part.signal
        self._open_runs.pop(rn, None)
        self._event_transforms.pop(rn, None)
        self._quarantined[rn] = reason
        _trace.active_tracer().count("quarantine.runs")

    def close_run(self, run_number: int) -> None:
        """Retire a finished run (frees its cached transforms).

        Under recovery the close itself is a fault site (a real stream's
        end-of-run packet can be lost); a close that keeps failing
        quarantines the run like any other exhausted retry.
        """
        if self.recovery is not None:
            def attempt(_attempt: int) -> None:
                _faults.fault_point("stream.close_run", run=run_number)

            try:
                _faults.retry_call(
                    attempt,
                    site=f"stream.close_run[{run_number}]",
                    policy=self.recovery.retry,
                    retryable=self.recovery.retryable,
                )
            except _faults.RetryExhaustedError as exc:
                if not self.recovery.quarantine:
                    raise
                self._quarantine_open_run(run_number, repr(exc.last))
                return
        self._open_runs.pop(run_number, None)
        self._event_transforms.pop(run_number, None)
        self._run_binmd.pop(run_number, None)
        self._run_mdnorm.pop(run_number, None)

    # -- live output ------------------------------------------------------
    def snapshot(self) -> Hist3:
        """The cross-section as of the events consumed so far."""
        return self._binmd.divide(self._mdnorm)

    @property
    def binmd(self) -> Hist3:
        return self._binmd

    @property
    def mdnorm_hist(self) -> Hist3:
        return self._mdnorm

    @property
    def events_seen(self) -> int:
        return self._events_seen

    @property
    def runs_opened(self) -> int:
        return self._runs_opened

    @property
    def quarantined(self) -> Dict[int, str]:
        """Runs evicted by the failure policy: run number -> reason."""
        return dict(self._quarantined)

    @property
    def cache_stats(self) -> dict:
        """Snapshot of the geometry cache's hit/miss/eviction counters."""
        return self.geom_cache.stats.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamingReduction(runs={self._runs_opened}, "
            f"events={self._events_seen}, "
            f"coverage={self._binmd.nonzero_fraction():.1%})"
        )
