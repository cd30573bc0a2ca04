"""The campaign service: admission -> fair share -> isolated execution.

:class:`CampaignService` is the persistent scheduler the ISSUE's
tentpole describes.  One instance owns

* a :class:`~repro.service.queue.JobQueue` (admission control +
  fair-share dispatch),
* a pool of worker threads executing jobs on the existing reduction
  stack (:class:`~repro.core.workflow.ReductionWorkflow`, and through
  it the campaign executors — static or stealing),
* a :class:`~repro.service.store.ResultStore` (content-addressed
  results + single-flight dedup),
* a service-level :class:`~repro.util.monitor.CampaignMonitor` acting
  as the health endpoint (``repro_service_*`` gauges + per-job labels).

Per-job isolation is layered thread-locally, because jobs share one
process:

* **checkpoints** — each campaign checkpoints under
  ``root/ckpt/<digest>``, digest-bound to its configuration, so a
  resumed or cancelled job can only ever fold deltas of its own
  science; single-flight guarantees a digest has at most one writer at
  a time, and a later job asking for the same science resumes the
  completed runs bit-identically;
* **faults** — a job's :class:`~repro.util.faults.FaultPlan` is
  installed with :func:`~repro.util.faults.thread_fault_plan`, scoped
  to the worker thread: a poisoned job quarantines *its own* runs and
  completes degraded while its neighbours stay bit-identical;
* **monitoring** — each job reports into its own labelled monitor via
  :func:`~repro.util.monitor.thread_monitor`;
* **cancellation** — each job carries a
  :class:`~repro.util.cancel.CancelToken` (deadline = the spec's
  ``timeout_s``) threaded through
  :class:`~repro.core.checkpoint.RecoveryConfig`, so cancel/expiry
  stops the campaign *between durable units*: always checkpointed,
  always resumable, resumption bit-identical.

Degraded results (quarantined runs) are deliberately **not** stored:
the content-addressed store only ever serves full-fidelity histograms,
and a poisoned leader fails its flight so a clean joiner re-elects and
computes for real.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.checkpoint import CheckpointManager, RecoveryConfig
from repro.core.workflow import ReductionWorkflow
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    estimate_job_bytes,
    workflow_digest,
)
from repro.service.queue import AdmissionDecision, AdmissionPolicy, JobQueue
from repro.service.store import ResultStore, ResultStoreError, StoredResult
from repro.util import faults as _faults
from repro.util import monitor as _monitor
from repro.util import trace as _trace
from repro.util.cancel import CancelledError, CancelToken, DeadlineExpiredError
from repro.util.validation import ReproError, require


class ServiceError(ReproError):
    """Service misuse (unknown job, bad transition, not started)."""


class CampaignService:
    """A persistent multi-tenant front end to the reduction stack."""

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        policy: Optional[AdmissionPolicy] = None,
        workers: int = 2,
        clock: Callable[[], float] = time.time,
        cancel_clock: Callable[[], float] = time.monotonic,
        metrics_path: Optional[str] = None,
        name: str = "service",
    ) -> None:
        require(int(workers) >= 1, "need at least one worker")
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.queue = JobQueue(policy)
        self.store = ResultStore(os.path.join(self.root, "store"))
        self.monitor = _monitor.CampaignMonitor(
            label=name, metrics_path=metrics_path
        )
        self._clock = clock
        self._cancel_clock = cancel_clock
        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._job_monitors: Dict[str, _monitor.CampaignMonitor] = {}
        self._seq = 0
        self._n_workers = int(workers)
        self._threads: List[threading.Thread] = []
        self._stop = False
        self._started = False
        self._parent_uid: Optional[str] = None

    # -- lifecycle of the service itself ----------------------------------
    def start(self) -> "CampaignService":
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._stop = False
            # worker threads adopt the starter's span as causal parent,
            # so every service.job span hangs off the service campaign
            # root (schema v3 parent_uid; process-local parent_id stays
            # None across threads)
            tracer = _trace.active_tracer()
            cur = tracer.current_span()
            self._parent_uid = (cur.uid if cur is not None
                                else _trace.remote_parent())
            for w in range(self._n_workers):
                t = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-service-worker-{w}",
                    daemon=True,
                )
                t.start()
                self._threads.append(t)
        self._refresh_gauges()
        return self

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.drain(cancel_running=True)

    # -- submission -------------------------------------------------------
    def submit(self, spec: JobSpec) -> Tuple[Job, AdmissionDecision]:
        """Admit a campaign; rejected jobs are returned untracked with
        the structured decision."""
        with self._lock:
            # a drained service stays addressable: submissions get the
            # structured "draining" rejection from admission below
            if not self._started and not self.queue.draining:
                raise ServiceError("service is not started")
            self._seq += 1
            job = Job(
                id=f"job-{self._seq:05d}",
                spec=spec,
                digest=workflow_digest(spec.config),
                est_bytes=estimate_job_bytes(spec.config),
                seq=self._seq,
                cancel=CancelToken.with_timeout(
                    spec.timeout_s, clock=self._cancel_clock
                ),
            )
            job.timestamps[JobState.QUEUED] = self._clock()
        tracer = _trace.active_tracer()
        tracer.count("service.queued")
        # two-phase: admit (hold quota) first, record the ADMITTED
        # transition, and only then make the job dispatchable — a worker
        # must never pop a job whose admission is still being recorded
        decision = self.queue.offer(job, defer=True)
        if not decision.admitted:
            tracer.count("service.rejected")
            with tracer.span(
                "service.reject", kind="service", job=job.id,
                tenant=job.tenant, code=decision.code,
            ):
                pass
            job.error = f"rejected: {decision.code}"
            self._refresh_gauges()
            return job, decision
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._transition(job, JobState.ADMITTED)
        self.queue.enqueue(job)
        return job, decision

    # -- queries ----------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[i] for i in self._order]

    def status(self) -> Dict[str, object]:
        with self._lock:
            jobs = [self._jobs[i].as_dict() for i in self._order]
        return {
            "jobs": jobs,
            "queue_depth": self.queue.depth(),
            "active_jobs": self.queue.active_jobs(),
            "tenants": self.queue.tenant_load(),
            "store": self.store.stats(),
            "draining": self.queue.draining,
        }

    def wait(
        self, job_id: Optional[str] = None, timeout: Optional[float] = None
    ) -> bool:
        """Block until the job (or every tracked job) is terminal."""
        deadline = (None if timeout is None
                    else time.monotonic() + float(timeout))

        def ready() -> bool:
            if job_id is not None:
                return self._jobs[job_id].terminal
            return all(j.terminal for j in self._jobs.values())

        with self._done:
            if job_id is not None and job_id not in self._jobs:
                raise ServiceError(f"unknown job {job_id!r}")
            while not ready():
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._done.wait(remaining if remaining is not None else 0.5)
            return True

    # -- cancellation -----------------------------------------------------
    def cancel(self, job_id: str, reason: str = "cancelled") -> bool:
        """Cooperatively cancel a job (idempotent; False when already
        terminal)."""
        job = self.job(job_id)
        with self._lock:
            if job.terminal:
                return False
        if self.queue.remove(job):
            # never dispatched: settle it here
            job.cancel.cancel(reason)
            self._finish(job, JobState.CANCELLED, error=reason)
            return True
        # running (or being popped right now): the token reaches it
        # between durable units of work
        job.cancel.cancel(reason)
        return True

    # -- drain / shutdown -------------------------------------------------
    def drain(
        self,
        *,
        cancel_running: bool = False,
        timeout: Optional[float] = 60.0,
    ) -> bool:
        """Graceful shutdown: stop admitting, settle in-flight work.

        With ``cancel_running`` every non-terminal job is cancelled
        cooperatively — each stops between durable units with its
        checkpoint on disk (the acceptance invariant: no in-flight job
        without a durable checkpoint).  Without it, queued + running
        jobs complete normally.  Returns True when everything settled
        in time.
        """
        self.queue.drain()
        _trace.active_tracer().count("service.drain")
        if cancel_running:
            with self._lock:
                live = [j for j in self._jobs.values() if not j.terminal]
            for job in live:
                if self.queue.remove(job):
                    job.cancel.cancel("drain")
                    self._finish(job, JobState.CANCELLED, error="drain")
                else:
                    job.cancel.cancel("drain")
        settled = self.wait(timeout=timeout)
        with self._lock:
            self._stop = True
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []
        with self._lock:
            self._started = False
        self._refresh_gauges()
        return settled

    # -- metrics / health -------------------------------------------------
    def metrics(self) -> str:
        """The OpenMetrics health exposition: service gauges plus every
        job's labelled campaign metrics, one scrapeable document."""
        self._refresh_gauges()
        parts = [self.monitor.openmetrics()]
        with self._lock:
            monitors = [self._job_monitors[i] for i in self._order
                        if i in self._job_monitors]
        parts.extend(m.openmetrics() for m in monitors)
        body = "".join(p.replace("# EOF\n", "") for p in parts)
        return body + "# EOF\n"

    def _refresh_gauges(self) -> None:
        self.monitor.set_gauge("service_queue_depth", self.queue.depth())
        self.monitor.set_gauge("service_active_jobs",
                               self.queue.active_jobs())
        stats = self.store.stats()
        self.monitor.set_gauge("service_store_hits", stats["hits"])
        self.monitor.set_gauge("service_store_coalesced",
                               stats["coalesced"])
        self.monitor.set_gauge("service_rejections",
                               self.queue.rejections)

    # -- state machine ----------------------------------------------------
    def _transition(self, job: Job, state: str) -> None:
        with self._lock:
            allowed = JobState.TRANSITIONS.get(job.state, frozenset())
            require(
                state in allowed,
                f"illegal transition {job.state} -> {state} for {job.id}",
            )
            prev = job.state
            job.state = state
            job.timestamps[state] = self._clock()
        tracer = _trace.active_tracer()
        tracer.count(f"service.{state}")
        with tracer.span(
            "service.transition", kind="service", job=job.id,
            tenant=job.tenant, **{"from": prev, "to": state},
        ):
            pass
        self.monitor.drop_gauge("service_job_state", job=job.id,
                                tenant=job.tenant, state=prev)
        self.monitor.set_gauge("service_job_state", 1.0, job=job.id,
                               tenant=job.tenant, state=state)
        self._refresh_gauges()

    def _finish(self, job: Job, state: str, *, error: str = "",
                result: Optional[Dict[str, object]] = None) -> None:
        self._transition(job, state)
        with self._lock:
            if error:
                job.error = error
            if result is not None:
                job.result = dict(result)
        self.queue.finish(job)
        self._refresh_gauges()
        with self._done:
            self._done.notify_all()

    # -- workers ----------------------------------------------------------
    def _worker_loop(self) -> None:
        with _trace.parent_scope(self._parent_uid):
            while True:
                with self._lock:
                    if self._stop:
                        return
                job = self.queue.pop(timeout=0.05)
                if job is None:
                    continue
                try:
                    self._dispatch(job)
                except Exception as exc:  # pragma: no cover - last resort
                    if not job.terminal:
                        with contextlib.suppress(Exception):
                            self._finish(job, JobState.QUARANTINED,
                                         error=f"internal: {exc!r}")

    def _dispatch(self, job: Job) -> None:
        # a cancel/expiry that raced dispatch settles without running
        if job.cancel.cancelled:
            state = (JobState.EXPIRED if job.cancel.reason == "deadline"
                     else JobState.CANCELLED)
            self._finish(job, state, error=job.cancel.reason)
            return
        self._transition(job, JobState.RUNNING)
        tracer = _trace.active_tracer()
        with tracer.span("service.job", kind="service", job=job.id,
                         tenant=job.tenant, digest=job.digest):
            self._run_single_flight(job)

    def _run_single_flight(self, job: Job) -> None:
        """Resolve the job through the store's single-flight registry."""
        tracer = _trace.active_tracer()
        cur = tracer.current_span()  # the service.job span (same thread)
        my_uid = cur.uid if cur is not None else None
        while True:
            role, stored, flight = self.store.begin(job.digest, job.id)
            if role == "hit":
                assert stored is not None
                self._finish_from_stored(job, stored, provenance="cache")
                return
            if role == "join":
                assert flight is not None
                while not flight.done.wait(0.02):
                    if job.cancel.cancelled:
                        self._settle_cancelled(job)
                        return
                if flight.result is not None:
                    # causal record of the dedup: this job's span to the
                    # leader's span whose reduction it coalesced onto
                    tracer.link(my_uid, flight.leader_uid, kind="joiner",
                                job=job.id, leader=flight.leader,
                                digest=job.digest)
                    self._finish_from_stored(
                        job, flight.result, provenance="coalesced"
                    )
                    return
                # the leader failed or was cancelled: re-elect
                continue
            assert flight is not None
            flight.leader_uid = my_uid
            self._lead(job, flight)
            return

    def _finish_from_stored(
        self, job: Job, stored: StoredResult, *, provenance: str
    ) -> None:
        self._finish(job, JobState.DONE, result={
            "provenance": provenance,
            "digest": stored.digest,
            "path": stored.path,
            "binmd_total": float(stored.binmd_signal.sum()),
            "mdnorm_total": float(stored.mdnorm_signal.sum()),
        })

    def _settle_cancelled(self, job: Job) -> None:
        state = (JobState.EXPIRED if job.cancel.reason == "deadline"
                 else JobState.CANCELLED)
        self._finish(job, state, error=job.cancel.reason or "cancelled")

    def _lead(self, job: Job, flight) -> None:
        """This job computes: run the campaign under full isolation."""
        try:
            result = self._reduce(job)
        except (CancelledError, DeadlineExpiredError) as exc:
            self.store.fail(flight, exc)
            state = (JobState.EXPIRED if getattr(exc, "reason", "") == "deadline"
                     else JobState.CANCELLED)
            self._finish(job, state, error=str(exc))
            return
        except Exception as exc:
            self.store.fail(flight, exc)
            self._finish(job, JobState.QUARANTINED, error=repr(exc))
            return
        if result.degraded or result.cross_section is None:
            # degraded science never enters the content-addressed store
            self.store.fail(
                flight,
                ResultStoreError(
                    f"degraded result (quarantined runs "
                    f"{list(result.quarantined_runs)})"
                ),
            )
            self._finish(job, JobState.QUARANTINED, result={
                "provenance": "computed",
                "degraded": True,
                "quarantined_runs": list(result.quarantined_runs),
                "binmd_total": (float(result.binmd.signal.sum())
                                if result.binmd is not None else None),
            }, error="degraded: runs quarantined")
            return
        stored = self.store.put(
            job.digest,
            binmd_signal=result.binmd.signal,
            binmd_error_sq=result.binmd.error_sq,
            mdnorm_signal=result.mdnorm.signal,
            cross_section=result.cross_section.signal,
            meta={
                "job": job.id,
                "tenant": job.tenant,
                "n_runs": int(result.n_runs),
                "backend": result.backend,
            },
        )
        self.store.complete(flight, stored)
        self._finish_from_stored(job, stored, provenance="computed")

    def _reduce(self, job: Job):
        """One isolated campaign: own checkpoint dir, own fault scope,
        own monitor, cancel token threaded through recovery."""
        cfg = job.spec.config
        jobdir = os.path.join(self.root, "jobs", job.id)
        os.makedirs(jobdir, exist_ok=True)
        # checkpoints are keyed by the *config digest*, not the job id:
        # single-flight guarantees one leader per digest at a time, so a
        # cancelled/expired campaign's completed runs are resumed by the
        # next job that asks for the same science
        ckpt = CheckpointManager(
            os.path.join(self.root, "ckpt", job.digest),
            config_digest=job.digest,
            grid=cfg.grid,
        )
        # this is a fresh attempt: retry what an earlier (possibly
        # fault-injected) attempt quarantined instead of inheriting it
        ckpt.clear_quarantine()
        base = cfg.recovery if cfg.recovery is not None else RecoveryConfig()
        recovery = dataclasses.replace(
            base, checkpoint=ckpt, resume=True, cancel=job.cancel
        )
        run_cfg = dataclasses.replace(cfg, recovery=recovery)
        job_monitor = _monitor.CampaignMonitor(
            label=job.spec.label or job.id,
            labels={"job": job.id, "tenant": job.tenant},
            metrics_path=os.path.join(jobdir, "metrics.prom"),
        )
        with self._lock:
            self._job_monitors[job.id] = job_monitor
        # the thread-local fault override isolates this job both ways:
        # its own plan never leaks out, and a process-global plan never
        # leaks in
        with _monitor.thread_monitor(job_monitor), \
                _faults.thread_fault_plan(job.spec.fault_plan):
            workflow = ReductionWorkflow(run_cfg)
            try:
                return workflow.run(None)
            finally:
                job_monitor.finish_campaign()
