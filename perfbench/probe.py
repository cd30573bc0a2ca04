"""Child-process steps of the benchmark, each printing one JSON line.

``synth``  synthesizes a workload's inputs under ``REPRO_BENCH_DATA``
           (kept out of the parent's set-up time and peak memory) and
           prints their digest.
``setup``  times the program's set-up in a fresh interpreter: import,
           ``ReductionWorkflow`` construction and the shard-pool start.

Run by ``run.py``; by hand: ``python3 perfbench/probe.py setup
--workload benzil_campaign`` with ``REPRO_BENCH_DATA`` and
``PYTHONPATH=src`` set.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, set_up, tear_down  # noqa: E402

#: bytes of synthesized inputs kept for reuse by later runs
KEEP_BYTES = 1 << 30


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _prune(root: Path, keep: Path) -> None:
    """Drop the least recently used input directories beyond the cap."""
    dirs = sorted((p for p in root.iterdir() if p.is_dir() and p != keep),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    total = sum(f.stat().st_size for f in keep.iterdir())
    for old in dirs:
        total += sum(f.stat().st_size for f in old.iterdir())
        if total > KEEP_BYTES:
            shutil.rmtree(old, ignore_errors=True)


def synth(workload, seed) -> dict:
    from repro.bench.workloads import build_workload

    t = time.perf_counter()
    data = build_workload(workload.spec(seed))
    seconds = time.perf_counter() - t
    # the raw event files are synthesis by-products no reduction reads
    for path in data.nexus_paths:
        if os.path.exists(path):
            os.remove(path)
    os.utime(data.directory)
    _prune(data.directory.parent, data.directory)
    inputs = list(data.md_paths) + [data.flux_path, data.vanadium_path, data.instrument_path]
    return {"synth_s": seconds, "digest": _digest(inputs), "directory": data.directory.name}


def setup(workload, seed) -> dict:
    program = set_up(workload, seed)
    seconds = time.perf_counter() - T0
    tear_down(program)
    return {"setup_s": seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("synth", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    step = synth if args.step == "synth" else setup
    print(json.dumps(step(WORKLOADS[args.workload], args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
