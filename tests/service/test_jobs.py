"""Job model: digests, byte estimates, lifecycle legality."""

import dataclasses

import pytest

from repro.core.grid import HKLGrid
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    estimate_job_bytes,
    workflow_digest,
)
from repro.util.validation import ReproError


class TestWorkflowDigest:
    def test_stable_for_identical_configs(self, make_config):
        assert workflow_digest(make_config()) == workflow_digest(make_config())

    def test_science_knobs_change_the_digest(self, make_config, tiny_experiment):
        base = workflow_digest(make_config())
        other_grid = HKLGrid.benzil_grid(bins=(21, 21, 1))
        assert workflow_digest(make_config(grid=other_grid)) != base
        assert workflow_digest(make_config(backend="numpy")) != base
        assert workflow_digest(make_config(sort_impl="comb")) != base
        fewer = make_config(md_paths=tiny_experiment.md_paths[:2])
        assert workflow_digest(fewer) != base

    def test_scheduling_knobs_do_not(self, make_config):
        base = workflow_digest(make_config())
        assert workflow_digest(make_config(shards=4)) == base
        assert workflow_digest(make_config(executor="stealing")) == base
        assert workflow_digest(make_config(memory_budget=1 << 20)) == base


class TestEstimateJobBytes:
    def test_positive_and_scales_with_runs(self, make_config, tiny_experiment):
        full = estimate_job_bytes(make_config())
        fewer = estimate_job_bytes(
            make_config(md_paths=tiny_experiment.md_paths[:1]))
        assert full > fewer > 0

    def test_missing_files_still_estimate(self, make_config):
        cfg = make_config(md_paths=["/nonexistent/run.md.h5"])
        assert estimate_job_bytes(cfg) > 0


class TestJobSpec:
    def test_requires_tenant(self, make_config):
        with pytest.raises(ReproError):
            JobSpec(tenant="", config=make_config())

    def test_requires_positive_timeout(self, make_config):
        with pytest.raises(ReproError):
            JobSpec(tenant="hb3a", config=make_config(), timeout_s=0.0)


class TestLifecycle:
    def test_terminal_states_have_no_exits(self):
        for state in JobState.TERMINAL:
            assert state not in JobState.TRANSITIONS

    def test_happy_path_is_legal(self):
        assert JobState.ADMITTED in JobState.TRANSITIONS[JobState.QUEUED]
        assert JobState.RUNNING in JobState.TRANSITIONS[JobState.ADMITTED]
        assert JobState.DONE in JobState.TRANSITIONS[JobState.RUNNING]

    def test_cancel_legal_from_every_live_state(self):
        for state in (JobState.QUEUED, JobState.ADMITTED, JobState.RUNNING):
            assert JobState.CANCELLED in JobState.TRANSITIONS[state]

    def test_job_snapshot(self, make_config):
        spec = JobSpec(tenant="cncs", config=make_config(), label="panel")
        job = Job(id="job-00001", spec=spec, digest="abc", est_bytes=42,
                  seq=1)
        doc = job.as_dict()
        assert doc["id"] == "job-00001"
        assert doc["tenant"] == "cncs"
        assert doc["state"] == JobState.QUEUED
        assert doc["est_bytes"] == 42
        assert not job.terminal
        job.state = JobState.DONE
        assert job.terminal
