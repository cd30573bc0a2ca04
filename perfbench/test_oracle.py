"""Tests of the benchmark's own output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracle.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402


def _result(seed: int = 0) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    binmd = rng.integers(0, 5, size=(6, 5, 1)).astype(np.float64)
    mdnorm = rng.random((6, 5, 1))
    mdnorm[0, 0, 0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(mdnorm > 0, binmd / mdnorm, np.nan)
    return SimpleNamespace(**{name: SimpleNamespace(signal=arr) for name, arr in
                              (("binmd", binmd), ("mdnorm", mdnorm), ("cross_section", cross))})


def _perturbed(result: SimpleNamespace, name: str) -> SimpleNamespace:
    out = copy.deepcopy(result)
    signal = getattr(out, name).signal
    signal[1, 2, 0] = np.nextafter(signal[1, 2, 0], np.inf)
    return out


def test_identical_outputs_pass_including_nan_bins():
    ref = _result()
    checker = run.Checker([("vectorized", ref)], [])
    assert checker.check(copy.deepcopy(ref))
    assert (checker.attempted, checker.failed, checker.problems) == (1, 0, [])


@pytest.mark.parametrize("name", oracle.OUTPUTS)
def test_one_ulp_perturbation_counts_as_failed(name):
    ref = _result()
    checker = run.Checker([("vectorized", ref)], [])
    assert not checker.check(_perturbed(ref, name))
    assert (checker.attempted, checker.failed) == (1, 1)
    assert name in checker.problems[0]


def test_any_listed_reference_may_match():
    ref, other = _result(0), _result(1)
    checker = run.Checker([("vectorized", other), ("serial", ref)], [])
    assert checker.check(copy.deepcopy(ref))
    assert not checker.check(_result(2))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_stored_summary_outside_tolerance_fails_every_reduction():
    ref = _result()
    summary = oracle.summarize(ref, n_events=10)
    stored = {k: {"value": v, "rtol": 1e-9} for k, v in summary.items()}
    assert oracle.summary_problems(summary, stored) == []
    stored["mdnorm_sum"]["value"] *= 1.01
    problems = oracle.summary_problems(summary, stored)
    assert len(problems) == 1 and problems[0].startswith("mdnorm_sum")
    checker = run.Checker([("vectorized", ref)], problems)
    assert not checker.check(copy.deepcopy(ref))
    assert checker.failed == 1


def test_stored_reference_covers_every_workload():
    stored = oracle.load_reference()
    assert sorted(stored) == sorted(run.workloads.WORKLOADS)
    for table in stored.values():
        assert sorted(table) == sorted(oracle.summarize(_result(), 1))


def test_perturbed_real_reduction_counts_as_failed(tmp_path, monkeypatch):
    """A real (tiny) reduction through the program, then one BinMD bin
    moved by one ulp."""
    monkeypatch.setenv("REPRO_BENCH_DATA", str(tmp_path))
    from repro.bench.workloads import benzil_corelli, build_workload
    from repro.core.geom_cache import DISABLED
    from repro.core.workflow import ReductionWorkflow, WorkflowConfig

    data = build_workload(benzil_corelli(scale=0.0002, n_files=1))
    config = WorkflowConfig(
        md_paths=data.md_paths, flux_path=data.flux_path,
        vanadium_path=data.vanadium_path, instrument=data.instrument,
        grid=data.grid, point_group=data.point_group, backend="vectorized",
        geom_cache=DISABLED)
    ref = ReductionWorkflow(config).run()
    again = ReductionWorkflow(config).run()
    checker = run.Checker([("vectorized", ref)], [])
    assert checker.check(again)
    hit = np.flatnonzero(again.binmd.signal)[0]
    again.binmd.signal.reshape(-1)[hit] = np.nextafter(
        again.binmd.signal.reshape(-1)[hit], np.inf)
    assert not checker.check(again)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_benchmark_json_matches_the_metrics_the_run_prints():
    import json

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
