"""Geometry-cache cold-vs-warm split on the repeated Benzil panel.

The ISSUE's acceptance benchmark: a Garnet-style workflow re-reduces
the same runs across symmetry panels, grid sweeps and benchmark
repetitions, so the second (warm) pass should skip the trajectory /
deposit-plan computation entirely and replay the cached
arrays.  This measures both passes with
:func:`repro.bench.harness.run_repeated_panel`, renders the per-stage
cold/warm table into ``results/``, and asserts

* warm and cold histograms are **bit-identical** (the cache must never
  change physics), and
* the warm MDNorm stage is at least **1.5x** faster than cold on the
  Benzil/CORELLI workload — the "hot path measurably faster" criterion.
"""

import numpy as np

from conftest import record_report
from repro.bench.harness import run_repeated_panel
from repro.bench.report import format_table

#: acceptance floor for the warm-path win on the repeated panel
MIN_MDNORM_SPEEDUP = 1.5


def test_cache_warm_path_benzil(benzil_data):
    split = run_repeated_panel(benzil_data)

    # -- correctness first: the cache must not change a single bit -----
    assert np.array_equal(
        split.cold.result.binmd.signal, split.warm.result.binmd.signal
    )
    assert np.array_equal(
        split.cold.result.mdnorm.signal, split.warm.result.mdnorm.signal
    )

    # -- counters: the warm pass really ran against the cache ----------
    stats = split.cache_stats
    assert stats["hits"] > 0, stats
    assert stats["misses"] > 0, stats
    assert stats["hit_rate"] > 0.0

    table = split.stage_table()
    rows = [
        (
            stage,
            f"{row['cold_s']:.4f}",
            f"{row['warm_s']:.4f}",
            f"{row['speedup']:.2f}x",
        )
        for stage, row in table.items()
    ]
    rows.append(("cache", f"hits={stats['hits']:.0f}",
                 f"misses={stats['misses']:.0f}",
                 f"hit rate {stats['hit_rate']:.0%}"))
    record_report(
        "cache_warm_path",
        format_table(
            "Geometry cache: cold vs warm reduction of the repeated "
            f"Benzil/CORELLI panel ({split.cold.files_measured} files, "
            "vectorized back end)",
            ["stage", "cold (s)", "warm (s)", "speedup"],
            rows,
        ),
    )

    # -- the acceptance criterion: warm MDNorm >= 1.5x faster ----------
    speedup = split.speedup("MDNorm")
    assert speedup >= MIN_MDNORM_SPEEDUP, (
        f"warm MDNorm only {speedup:.2f}x faster than cold "
        f"(need >= {MIN_MDNORM_SPEEDUP}x); table: {table}"
    )
