"""Multi-tenant campaign service (PR 8).

A persistent scheduler in front of the reduction stack: beamline
tenants submit :class:`~repro.service.jobs.JobSpec` campaigns, the
service admits them against per-tenant quotas
(:mod:`repro.service.queue`), runs them with per-job isolation on the
existing campaign executors (:mod:`repro.service.scheduler`), dedups
identical submissions through a content-addressed result store with
single-flight coalescing (:mod:`repro.service.store`), and exposes the
whole thing over a file-spool front end for the CLI
(:mod:`repro.service.spool`).
"""

from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    estimate_job_bytes,
    workflow_digest,
)
from repro.service.queue import (
    AdmissionDecision,
    AdmissionPolicy,
    JobQueue,
    TenantQuota,
)
from repro.service.scheduler import CampaignService
from repro.service.store import ResultStore, StoredResult

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "CampaignService",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobState",
    "ResultStore",
    "StoredResult",
    "TenantQuota",
    "estimate_job_bytes",
    "workflow_digest",
]
