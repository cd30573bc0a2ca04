"""Only the MiniVATES proxy runs the max-intersections pre-pass.

The reduction's batch kernel sizes each tile's intersection buffer from
its own fill, so a traced ``vectorized`` reduction records no
``mdnorm.prepass`` span and copies nothing device-to-host, whatever the
execution path.  MiniVATES allocates its device buffer before the
kernel runs, so it runs the pre-pass, with its device-to-host copy,
once per run file.
"""

import pytest

from repro.core.geom_cache import DISABLED
from repro.core.md_event_workspace import save_md
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.proxy.minivates import MiniVatesConfig, MiniVatesWorkflow
from repro.util import trace


def _files(exp):
    return dict(
        flux_path=exp.flux_path, vanadium_path=exp.vanadium_path,
        instrument=exp.instrument, grid=exp.grid, point_group=exp.point_group,
    )


def _traced(run):
    tracer = trace.Tracer(label="prepass-owner")
    with trace.use_tracer(tracer):
        run()
    spans = [r for r in tracer.records if r.get("type") == "span"]
    return spans, tracer.counters


@pytest.fixture(scope="module")
def chunked_paths(tiny_experiment, tmp_path_factory):
    base = tmp_path_factory.mktemp("prepass_chunked")
    paths = []
    for i, ws in enumerate(tiny_experiment.workspaces):
        path = str(base / f"run_{i}.md.h5")
        save_md(path, ws, chunk_events=200)
        paths.append(path)
    return paths


@pytest.mark.parametrize("path", ["plain", "shards", "stealing", "out_of_core"])
def test_reduction_runs_no_prepass(tiny_experiment, chunked_paths, path):
    exp = tiny_experiment
    options = {
        "plain": {},
        "shards": {"shards": 2, "shard_workers": 1},
        "stealing": {"executor": "stealing", "shards": 2, "shard_workers": 1},
        "out_of_core": {"memory_budget": 16 * 1024},
    }[path]
    md_paths = chunked_paths if path == "out_of_core" else exp.md_paths
    config = WorkflowConfig(md_paths=md_paths, backend="vectorized",
                            geom_cache=DISABLED, **_files(exp), **options)
    spans, counters = _traced(ReductionWorkflow(config).run)
    names = {s["name"] for s in spans}
    # the crossing fill ran in this process and sized its own buffers
    assert "intersections.fill_sort" in names, names
    assert "mdnorm.prepass" not in names
    assert counters.get("mdnorm.prepass_trajectories", 0) == 0
    assert counters.get("jacc.bytes_d2h", 0) == 0


def test_minivates_runs_one_prepass_per_file(tiny_experiment):
    exp = tiny_experiment
    config = MiniVatesConfig(md_paths=exp.md_paths, **_files(exp))
    result = None

    def run():
        nonlocal result
        result = MiniVatesWorkflow(config).run()

    spans, counters = _traced(run)
    prepass = [s for s in spans if s["name"] == "mdnorm.prepass"]
    assert len(prepass) == len(exp.md_paths)
    assert all(s["attrs"]["backend"] == "vectorized" for s in prepass)
    assert counters["jacc.bytes_d2h"] > 0
    assert result.extras["bytes_d2h"] > 0
