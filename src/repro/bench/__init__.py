"""Benchmark support: workload builders and the table/figure harness.

Everything the ``benchmarks/`` suite needs to regenerate the paper's
evaluation artifacts:

* :mod:`repro.bench.paper` — the published numbers of Tables I-VI,
  transcribed, for side-by-side reporting;
* :mod:`repro.bench.workloads` — the Benzil/CORELLI and Bixbyite/TOPAZ
  workloads at the paper's full parameters plus a scaling policy, with
  an on-disk dataset cache so repeated benchmark runs reuse the
  synthesized files;
* :mod:`repro.bench.systems` — Table I's systems plus the actual host;
* :mod:`repro.bench.harness` — drivers measuring each implementation
  and assembling the paper's table rows (JIT vs no-JIT columns,
  extrapolation of implementations measured on a file subset);
* :mod:`repro.bench.report` — plain-text table rendering and the
  paper-vs-measured comparison blocks quoted in EXPERIMENTS.md.
"""

from repro.util.lazy import lazy_exports

# public name -> defining module, imported on first use so that building
# a workload does not load the harness and, through it, every proxy
_EXPORTS = {
    "WorkloadSpec": "repro.bench.workloads",
    "WorkloadData": "repro.bench.workloads",
    "benzil_corelli": "repro.bench.workloads",
    "bixbyite_topaz": "repro.bench.workloads",
    "run_garnet": "repro.bench.harness",
    "run_cpp_proxy": "repro.bench.harness",
    "run_minivates": "repro.bench.harness",
    "MeasuredRun": "repro.bench.harness",
    "DeviceProfile": "repro.bench.harness",
    "MI100_PROFILE": "repro.bench.harness",
    "A100_PROFILE": "repro.bench.harness",
    "format_table": "repro.bench.report",
    "format_stage_table": "repro.bench.report",
    "comparison_block": "repro.bench.report",
    "SweepPoint": "repro.bench.sweep",
    "SweepResult": "repro.bench.sweep",
    "run_sweep": "repro.bench.sweep",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
