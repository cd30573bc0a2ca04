#!/usr/bin/env python3
"""The repository benchmark: whole Benzil/Bixbyite reduction campaigns.

    python3 perfbench/run.py --workload benzil_campaign --seed 7 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  One invocation synthesizes the
workload's inputs from ``--seed`` (in a child process, cached under
``.perfbench_work/``), times the program's set-up in fresh child
interpreters, then reduces the campaign again and again for
``--seconds``: each cycle is one cold reduction with a fresh
``GeomCache`` followed by warm re-reductions against the cache it
filled.  Every output is checked bitwise against an in-process
reference reduction, and that reference against the stored summary in
``reference.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also makes
two traced cold passes (program tracer with profiling on, plus the
benchmark's own per-layer timers from ``layers.py``) and reports the
per-layer metrics instead.  A human-readable table goes to stdout
first; the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: everything the benchmark writes, inside the checkout (git-ignored)
WORK = ROOT / ".perfbench_work"
#: fresh-interpreter set-up measurements per run (median reported)
SETUP_SAMPLES = 5
#: bound on every child step, well inside the run's own time limit
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "reduce_s": "s",
    "rereduce_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "stage.update_events_s": "s",
    "stage.mdnorm_s": "s",
    "stage.binmd_s": "s",
    "grid.bin_index_s": "s",
    "grid.bin_index_points": "count",
    "sort.comb_s": "s",
    "sort.rows": "count",
    "mdnorm.busy_s": "s",
    "mdnorm.prepass_s": "s",
    "intersections.fill_s": "s",
    "mdnorm.trajectories": "count",
    "mdnorm.pad_efficiency": "ratio",
    "binmd.busy_s": "s",
    "binmd.lanes": "count",
    "hist3.scatter_s": "s",
    "hist3.deposits": "count",
    "geom_cache.hit_ratio": "ratio",
    "geom_cache.bytes": "B",
    "geom_cache.evictions": "count",
    "nexus.load_s": "s",
    "nexus.decode_s": "s",
    "nexus.bytes_read": "B",
    "nexus.chunks_decoded": "count",
    "nexus.tile_hit_ratio": "ratio",
    "nexus.peak_resident_bytes": "B",
    "jacc.launches": "count",
    "jacc.element_calls": "count",
    "shard.tasks": "count",
    "shard.fanout_s": "s",
    "shard.replay_s": "s",
    "shard.logged_deposits": "count",
    "mpi.reduce_s": "s",
    "mpi.barrier_wait_s": "s",
    "steal.steals": "count",
    "steal.rank_idle_s": "s",
    "steal.queue_depth_max": "count",
    "checkpoint.save_s": "s",
    "checkpoint.writes": "count",
    "checkpoint.bytes_written": "B",
    "campaign.loop_self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed child)."""


# ---------------------------------------------------------------------------
# child steps
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe(step: str, workload: str, seed: Optional[int]) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "probe.py"), step, "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"probe {step} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "machine": f"{platform.system()}-{platform.machine()}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children() -> List[str]:
    pids: List[str] = []
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids += fh.read().split()
    except OSError:
        pass
    return pids


def reset_peak_rss() -> None:
    """Restart this process's resident high-water mark (Linux), so the
    reference reductions do not count toward the workload's peak."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children (the
    shard pool workers), in MiB."""
    own = _vm_hwm_kb("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_vm_hwm_kb(pid) for pid in _children())) / 1024.0


# ---------------------------------------------------------------------------
# checked reductions
# ---------------------------------------------------------------------------

class Checker:
    """Checks reductions against the references and counts them.

    ``refs`` are ``(backend, result)`` pairs: a reduction passes when it
    equals any one of them bitwise and the references passed the stored
    summary (``summary_problems`` empty).
    """

    def __init__(self, refs: List[Tuple[str, Any]], summary_problems: List[str]) -> None:
        self.refs = refs
        self.summary_problems = summary_problems
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = list(summary_problems)

    @classmethod
    def for_program(cls, program: workloads.Program, stored: Dict[str, Any]) -> "Checker":
        refs = [(backend + (" per-run fold" if fold else ""),
                 workloads.reference(program, backend, fold))
                for backend, fold in program.workload.exact_refs]
        summary = oracle.summarize(refs[0][1], program.n_events)
        return cls(refs, oracle.summary_problems(summary, stored))

    def check(self, result: Any) -> bool:
        self.attempted += 1
        bad: List[str] = []
        for _, ref in self.refs:
            bad = oracle.mismatches(result, ref)
            if not bad:
                break
        if bad:
            refs = " / ".join(label for label, _ in self.refs)
            self.problems.append(f"{', '.join(bad)} differ bitwise from the {refs} reference")
        if getattr(result, "degraded", False):
            bad.append("degraded")
            self.problems.append(f"degraded result: quarantined runs {result.quarantined_runs}")
        if bad or self.summary_problems:
            self.failed += 1
            return False
        return True

    def failure(self, exc: BaseException) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"reduction raised {type(exc).__name__}: {exc}")


def dir_bytes(path: Optional[str]) -> int:
    if path is None:
        return 0
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def timed_reduction(program: workloads.Program, cache: Any, checker: Checker,
                    scratch: Path) -> Tuple[Optional[float], Dict[str, float]]:
    """One checked reduction: (seconds, or None on failure; stage seconds)."""
    ckpt = tempfile.mkdtemp(dir=scratch) if program.workload.checkpoints else None
    try:
        workloads.configure(program, cache, ckpt)
        gc.collect()
        t0 = time.perf_counter()
        try:
            result, timings = workloads.run(program)
        except Exception as exc:  # a failed reduction is counted, not fatal
            checker.failure(exc)
            return None, {}
        seconds = time.perf_counter() - t0
        ok = checker.check(result)
        return (seconds if ok else None), workloads.stage_seconds(timings)
    finally:
        if ckpt is not None:
            shutil.rmtree(ckpt, ignore_errors=True)


def measure(program: workloads.Program, checker: Checker, seconds: float,
            scratch: Path, setup_probe: Callable[[], float]) -> Dict[str, List[float]]:
    """Cold + warm cycles for ``seconds`` of reduction time (at least one
    cycle).  The ``SETUP_SAMPLES`` set-up probes run between cycles, spread
    evenly over the window so they do not all see the same host load;
    their time does not count toward ``seconds``."""
    from repro.core.geom_cache import GeomCache

    samples: Dict[str, List[float]] = {
        "setup_s": [], "reduce_s": [], "rereduce_s": [],
        "UpdateEvents": [], "MDNorm": [], "BinMD": []}
    start = time.perf_counter()
    paused = 0.0

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    while True:
        if elapsed() >= len(samples["setup_s"]) * seconds / SETUP_SAMPLES \
                and len(samples["setup_s"]) < SETUP_SAMPLES:
            t0 = time.perf_counter()
            samples["setup_s"].append(setup_probe())
            paused += time.perf_counter() - t0
        cache = GeomCache()
        cold, stages = timed_reduction(program, cache, checker, scratch)
        if cold is not None:
            samples["reduce_s"].append(cold)
            for stage, value in stages.items():
                samples[stage].append(value)
        for _ in range(program.workload.rereduce_repeats):
            warm, _ = timed_reduction(program, cache, checker, scratch)
            if warm is not None:
                samples["rereduce_s"].append(warm)
        del cache
        if elapsed() >= seconds:
            break
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(setup_probe())
    return samples


# ---------------------------------------------------------------------------
# the traced pass
# ---------------------------------------------------------------------------

def traced_pass(program: workloads.Program, checker: Checker, scratch: Path,
                clock: layers.LayerClock, warm: bool) -> Dict[str, float]:
    """One traced cold reduction (optionally followed by a traced warm
    one for the cache ratios); returns its per-layer values."""
    from repro.core.geom_cache import GeomCache
    from repro.util import trace

    cache = GeomCache()
    ckpt = tempfile.mkdtemp(dir=scratch) if program.workload.checkpoints else None
    try:
        workloads.configure(program, cache, ckpt)
        clock.reset()
        gc.collect()
        tracer = trace.Tracer(label=f"perfbench/{program.workload.name}", profile=True)
        with trace.use_tracer(tracer):
            t0 = time.perf_counter()
            result, _ = workloads.run(program)
            wall = time.perf_counter() - t0
        snap = clock.snapshot()
        checker.check(result)
        values = layers.layer_metrics(snap, tracer.counters, wall, program.ranks)
        values["checkpoint.bytes_written"] = float(dir_bytes(ckpt))
        values["geom_cache.bytes"] = float(cache.current_bytes)
        values["wall_s"] = wall
        if warm:
            stats = cache.stats
            hits, lookups = stats.hits, stats.lookups
            workloads.configure(program, cache, None if ckpt is None else
                                tempfile.mkdtemp(dir=scratch))
            with trace.use_tracer(trace.Tracer(label="warm", profile=True)):
                result, _ = workloads.run(program)
            checker.check(result)
            values["geom_cache.hit_ratio"] = layers.ratio(
                stats.hits - hits, stats.lookups - lookups)
            values["geom_cache.evictions"] = float(stats.evictions)
        return values
    finally:
        if ckpt is not None:
            shutil.rmtree(ckpt, ignore_errors=True)


def trace_metrics(program: workloads.Program, checker: Checker, scratch: Path,
                  samples: Dict[str, List[float]]
                  ) -> Tuple[Dict[str, Tuple[float, List[float]]], List[str]]:
    """Two traced cold passes -> per-layer ``{name: (value, samples)}``
    and the traced-pass check problems."""
    from repro.jacc.workers import GLOBAL_POOL

    clock = layers.LayerClock()
    problems: List[str] = []
    if program.pool_workers:
        GLOBAL_POOL.dispose()
    with layers.instrumented(clock):
        if program.pool_workers:
            # fork the workers after the timers are in place so element
            # bodies and chunk decodes in the pool are counted too
            GLOBAL_POOL.executor(program.pool_workers)
        try:
            first = traced_pass(program, checker, scratch, clock, warm=True)
            second = traced_pass(program, checker, scratch, clock, warm=False)
        finally:
            # the workers were forked with the timers in place
            GLOBAL_POOL.dispose()

    for name in layers.INPUT_COUNTS:
        if first[name] != second[name]:
            problems.append(f"input-only count {name} differs between traced passes: "
                            f"{first[name]} vs {second[name]}")
    for values in (first, second):
        if values["campaign.loop_self_s"] < 0:
            problems.append("per-layer self times exceed the traced reduce_s "
                            f"by {-values['campaign.loop_self_s']:.6f} s")

    reduce_s = statistics.median(samples["reduce_s"])
    for values in (first, second):
        values["trace.overhead_frac"] = values["wall_s"] / reduce_s - 1.0
    out: Dict[str, Tuple[float, List[float]]] = {}
    for stage, name in (("UpdateEvents", "stage.update_events_s"),
                        ("MDNorm", "stage.mdnorm_s"), ("BinMD", "stage.binmd_s")):
        out[name] = (statistics.median(samples[stage]), samples[stage])
    for name, unit in PER_LAYER_UNITS.items():
        if name in out:
            continue
        if name not in second:  # warm-pass cache ratios: first pass only
            out[name] = (first[name], [first[name]])
        elif unit == "s" or name == "trace.overhead_frac":
            out[name] = ((first[name] + second[name]) / 2.0, [first[name], second[name]])
        else:  # counts from the first pass (input-only ones are checked equal)
            out[name] = (first[name], [first[name], second[name]])
    return out, problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _table(rows: List[Tuple[str, float, str, int, List[float]]]) -> str:
    lines = [f"{'metric':<28}{'value':>16} {'unit':<6}{'n':>4}{'min':>14}{'max':>14}"]
    for name, value, unit, n, values in rows:
        lo = min(values) if values else value
        hi = max(values) if values else value
        lines.append(f"{name:<28}{value:>16.6g} {unit:<6}{n:>4}{lo:>14.6g}{hi:>14.6g}")
    return "\n".join(lines)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benzil/Bixbyite campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's built-in seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement time of the untraced cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics from traced passes")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source {SRC / 'repro'} is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    os.environ["REPRO_BENCH_DATA"] = str(WORK / "data")
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    try:
        inputs = probe("synth", workload.name, args.seed)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    host = fingerprint()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host {json.dumps(host)}")
    print(f"inputs {inputs['directory']} sha256={inputs['digest']} "
          f"(synthesized in {inputs['synth_s']:.3f} s, not counted)")

    stored = oracle.load_reference()[workload.name]
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    program = workloads.set_up(workload, args.seed)
    try:
        print(f"workers: pool={program.pool_workers} ranks={program.ranks} "
              f"(nproc={host['nproc']})")
        checker = Checker.for_program(program, stored)
        reset_peak_rss()
        samples = measure(program, checker, args.seconds, scratch,
                          lambda: probe("setup", workload.name, args.seed)["setup_s"])
        rss = peak_rss_mb()
        if not (samples["reduce_s"] and samples["rereduce_s"]):
            raise BenchError("no cold or no warm reduction succeeded: "
                             + "; ".join(checker.problems[:5]))
        per_layer: Dict[str, Tuple[float, List[float]]] = {}
        if args.trace:
            per_layer, trace_problems = trace_metrics(program, checker, scratch, samples)
            checker.problems += trace_problems
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    finally:
        workloads.tear_down(program)
        shutil.rmtree(scratch, ignore_errors=True)

    reduce_s = statistics.median(samples["reduce_s"])
    end_to_end = {
        "setup_s": (statistics.median(samples["setup_s"]), samples["setup_s"]),
        "reduce_s": (reduce_s, samples["reduce_s"]),
        "rereduce_s": (statistics.median(samples["rereduce_s"]), samples["rereduce_s"]),
        "events_per_s": (program.n_events / reduce_s, []),
        "peak_rss_mb": (rss, []),
    }
    failed_frac = checker.failed / checker.attempted
    rows = [(name, value, END_TO_END_UNITS[name], max(len(values), 1), values)
            for name, (value, values) in end_to_end.items()]
    rows.append(("failed_frac", failed_frac, "ratio", checker.attempted, []))
    print(_table(rows))
    if per_layer:
        print(_table([(name, value, PER_LAYER_UNITS[name], len(values), values)
                      for name, (value, values) in per_layer.items()]))
    for problem in checker.problems[:20]:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = {name: {"value": per_layer[name][0], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, (value, _) in end_to_end.items()}
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
