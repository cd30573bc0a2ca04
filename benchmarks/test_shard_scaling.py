"""Intra-run shard scaling: the second level of the hierarchy, timed.

Algorithm 1 stops scaling at the run count; ISSUE 5's acceptance bar
is that fanning *inside* a run (detector shards for MDNorm, event
shards for BinMD, executed on the node's process pool) buys wall-clock
on a multi-core host:

* correctness (always): the sharded panels' histograms are
  bit-identical to the unsharded ``vectorized`` panel — sharding is an
  execution detail, never a numerics detail;
* against the fastest path (always): in-process sharding (one worker)
  costs at most 1.5x the unsharded ``vectorized`` ``Total`` — shard
  bodies run the same batch kernels, so the fan-out may only add
  bookkeeping;
* performance (multi-core hosts only): the pooled sharded panel is
  >= 1.5x faster than the ``threads`` back end.  Single-core hosts
  **skip** that assertion (no win is physically possible there) but
  still check the numerics, so the smoke never rots.
"""

import os

import numpy as np
import pytest

from conftest import record_report
from repro.bench.harness import run_sharded_panel
from repro.bench.report import format_table
from repro.jacc.workers import GLOBAL_POOL

MIN_SPEEDUP = 1.5
#: in-process sharded Total may cost at most this multiple of the
#: unsharded vectorized Total
MAX_SLOWDOWN_VS_FASTEST = 1.5
N_SHARDS = 4
STAGES = ("UpdateEvents", "MDNorm", "BinMD", "Total")


@pytest.fixture(scope="module")
def panel(benzil_data):
    p = run_sharded_panel(benzil_data, n_shards=N_SHARDS)
    yield p
    GLOBAL_POOL.dispose()


@pytest.fixture(scope="module")
def fastest_panel(benzil_data):
    """Unsharded ``vectorized`` vs in-process shards (one worker)."""
    return run_sharded_panel(benzil_data, baseline_backend="vectorized",
                             n_shards=N_SHARDS, workers=1)


def test_sharded_panel_bit_identical(panel, fastest_panel):
    """The determinism half of the acceptance bar: every histogram of
    both sharded campaigns equals the unsharded vectorized one bit for
    bit."""
    base = fastest_panel.baseline.result
    for shard in (panel.sharded.result, fastest_panel.sharded.result):
        assert np.array_equal(shard.cross_section.signal,
                              base.cross_section.signal, equal_nan=True)
        assert np.array_equal(shard.binmd.signal, base.binmd.signal)
        assert np.array_equal(shard.mdnorm.signal, base.mdnorm.signal)


def test_sharded_close_to_fastest_path(fastest_panel):
    """In-process sharding against the fastest single-process path."""
    base = fastest_panel.baseline.timings.seconds("Total")
    shard = fastest_panel.sharded.timings.seconds("Total")
    record_report(
        "shard_vs_vectorized",
        format_table(
            f"In-process shards vs unsharded vectorized (Benzil panel, "
            f"{fastest_panel.n_shards} shards on 1 worker)",
            ["stage", "vectorized (s)", f"x{fastest_panel.n_shards} "
             "shards (s)", "ratio"],
            [
                (
                    stage,
                    f"{fastest_panel.baseline.timings.seconds(stage):.4f}",
                    f"{fastest_panel.sharded.timings.seconds(stage):.4f}",
                    f"{1.0 / fastest_panel.speedup(stage):.2f}x",
                )
                for stage in STAGES
            ],
        ),
    )
    assert shard <= MAX_SLOWDOWN_VS_FASTEST * base, (
        f"in-process sharded Total {shard:.3f}s is "
        f"{shard / base:.2f}x the unsharded vectorized {base:.3f}s "
        f"(bar: {MAX_SLOWDOWN_VS_FASTEST}x)"
    )


def test_sharded_speedup(panel):
    """The performance half, reported always and asserted only where a
    win is physically possible (>= 2 cores)."""
    rows = [
        (
            stage,
            f"{panel.baseline.timings.seconds(stage):.4f}",
            f"{panel.sharded.timings.seconds(stage):.4f}",
            f"{panel.speedup(stage):.2f}x",
        )
        for stage in STAGES
    ]
    record_report(
        "shard_scaling",
        format_table(
            f"Intra-run shard scaling (Benzil panel, {panel.n_shards} shards"
            f" on {panel.workers} workers vs 1-shard threads)",
            ["stage", "1-shard (s)", f"x{panel.n_shards} shards (s)",
             "speedup"],
            rows,
        ),
    )
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            f"single-core host ({cores} CPU): shard fan-out cannot win; "
            "numerics verified, speedup not assertable"
        )
    assert panel.speedup("Total") >= MIN_SPEEDUP, (
        f"sharded panel only {panel.speedup('Total'):.2f}x vs 1-shard "
        f"threads (bar: {MIN_SPEEDUP}x on {cores} cores)"
    )
