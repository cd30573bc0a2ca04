"""Unit tests for the Algorithm-1 driver."""

import numpy as np
import pytest

from repro.core.cross_section import compute_cross_section
from repro.core.md_event_workspace import load_md
from repro.mpi import run_world
from repro.util.faults import (
    FaultPlan,
    FaultSpec,
    RetryExhaustedError,
    use_fault_plan,
)
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError


def _run_cs(exp, comm=None, backend="vectorized", **kw):
    return compute_cross_section(
        load_run=lambda i: load_md(exp.md_paths[i]),
        n_runs=len(exp.md_paths),
        grid=exp.grid,
        point_group=exp.point_group,
        flux=exp.flux,
        det_directions=exp.instrument.directions,
        solid_angles=exp.vanadium.detector_weights,
        comm=comm,
        backend=backend,
        **kw,
    )


class TestSingleRank:
    def test_result_structure(self, tiny_experiment):
        res = _run_cs(tiny_experiment)
        assert res.is_root
        assert res.n_runs == 3
        assert res.cross_section.grid.bins == tiny_experiment.grid.bins
        assert res.binmd.total() > 0
        assert res.mdnorm.total() > 0

    def test_cross_section_is_ratio(self, tiny_experiment):
        res = _run_cs(tiny_experiment)
        mask = res.mdnorm.signal != 0
        expected = res.binmd.signal[mask] / res.mdnorm.signal[mask]
        assert np.allclose(res.cross_section.signal[mask], expected)
        assert np.all(np.isnan(res.cross_section.signal[~mask]))

    def test_stage_timings_populated(self, tiny_experiment):
        timings = StageTimings(label="test")
        res = _run_cs(tiny_experiment, timings=timings)
        assert res.timings is timings
        for stage in ("UpdateEvents", "MDNorm", "BinMD", "Total"):
            assert timings.seconds(stage) > 0
        assert timings.timer("MDNorm").ncalls == 3  # one per run

    def test_backends_agree(self, tiny_experiment):
        a = _run_cs(tiny_experiment, backend="serial")
        b = _run_cs(tiny_experiment, backend="vectorized")
        assert np.allclose(a.binmd.signal, b.binmd.signal)
        assert np.allclose(a.mdnorm.signal, b.mdnorm.signal, rtol=1e-10)

    def test_zero_runs_rejected(self, tiny_experiment):
        with pytest.raises(ValidationError):
            compute_cross_section(
                load_run=lambda i: None,
                n_runs=0,
                grid=tiny_experiment.grid,
                point_group=tiny_experiment.point_group,
                flux=tiny_experiment.flux,
                det_directions=tiny_experiment.instrument.directions,
                solid_angles=tiny_experiment.vanadium.detector_weights,
            )

    def test_missing_ub_rejected(self, tiny_experiment):
        def load_no_ub(i):
            ws = load_md(tiny_experiment.md_paths[i])
            ws.ub_matrix = None
            return ws

        with pytest.raises(ValidationError, match="UB"):
            compute_cross_section(
                load_run=load_no_ub,
                n_runs=1,
                grid=tiny_experiment.grid,
                point_group=tiny_experiment.point_group,
                flux=tiny_experiment.flux,
                det_directions=tiny_experiment.instrument.directions,
                solid_angles=tiny_experiment.vanadium.detector_weights,
            )


class TestFailFastPolicy:
    """``recovery=None`` is the campaign loop's no-op failure policy: one
    direct attempt per run, outside any retry scope."""

    def test_load_error_propagates_after_one_call(self, tiny_experiment):
        exp = tiny_experiment
        calls = []

        def load_run(i):
            calls.append(i)
            raise OSError("run file vanished")

        with pytest.raises(OSError, match="vanished") as info:
            compute_cross_section(
                load_run=load_run,
                n_runs=len(exp.md_paths),
                grid=exp.grid,
                point_group=exp.point_group,
                flux=exp.flux,
                det_directions=exp.instrument.directions,
                solid_angles=exp.vanadium.detector_weights,
            )
        assert type(info.value) is OSError
        assert not isinstance(info.value, RetryExhaustedError)
        assert calls == [0]

    def test_recovery_scoped_faults_never_fire(self, tiny_experiment):
        plan = FaultPlan(
            [FaultSpec(site="kernel.*", kind="kernel_error",
                       probability=1.0, scope="recovery")],
            seed=11,
        )
        with use_fault_plan(plan):
            res = _run_cs(tiny_experiment)
        assert plan.events == []
        assert res.dispositions is None and not res.degraded
        clean = _run_cs(tiny_experiment)
        assert np.array_equal(res.mdnorm.signal, clean.mdnorm.signal)
        assert np.array_equal(res.binmd.signal, clean.binmd.signal)


class TestMPIDecomposition:
    @pytest.mark.parametrize("size", [2, 3])
    def test_matches_single_rank(self, tiny_experiment, size):
        single = _run_cs(tiny_experiment)

        def spmd(comm):
            res = _run_cs(tiny_experiment, comm=comm)
            if res.is_root:
                return res.binmd.signal, res.mdnorm.signal
            assert res.cross_section is None
            return None

        outs = run_world(size, spmd)
        binmd, mdnorm_sig = outs[0]
        assert np.allclose(binmd, single.binmd.signal)
        assert np.allclose(mdnorm_sig, single.mdnorm.signal, rtol=1e-10)
        assert all(o is None for o in outs[1:])

    def test_more_ranks_than_runs(self, tiny_experiment):
        single = _run_cs(tiny_experiment)

        def spmd(comm):
            res = _run_cs(tiny_experiment, comm=comm)
            return res.binmd.signal if res.is_root else None

        outs = run_world(5, spmd)  # ranks 3, 4 have no files
        assert np.allclose(outs[0], single.binmd.signal)


class TestImplInjection:
    def test_custom_impls_are_used(self, tiny_experiment):
        calls = {"binmd": 0, "mdnorm": 0}

        def binmd_impl(hist, events, transforms):
            calls["binmd"] += 1
            return hist

        def mdnorm_impl(hist, transforms, det_dirs, solid, flux, band, charge=1.0):
            calls["mdnorm"] += 1
            return hist

        res = _run_cs(
            tiny_experiment, binmd_impl=binmd_impl, mdnorm_impl=mdnorm_impl
        )
        assert calls == {"binmd": 3, "mdnorm": 3}
        assert res.binmd.total() == 0.0
