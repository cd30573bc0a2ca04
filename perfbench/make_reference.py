#!/usr/bin/env python3
"""Regenerate ``reference.json``, the stored output summary per workload.

    python3 perfbench/make_reference.py [--seeds 1 2 3 4 5] [--workloads NAME ...]

For every workload this reduces the built-in seed's inputs plus those of
``--seeds`` with the plain-loop ``vectorized`` reference, and stores the
built-in seed's summary statistics (see ``oracle.summarize``).  Each
statistic's relative tolerance is ``SAFETY`` times the largest relative
deviation seen across the seeds, and at least ``FLOOR``: statistics the
seed cannot move (MDNorm depends on geometry only) are held to ``FLOOR``.
Only run this when a change to the physics is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SAFETY = 4.0
FLOOR = 1e-9


def summaries(workload: workloads.Workload, seeds) -> list:
    out = []
    for seed in [None] + list(seeds):
        program = workloads.set_up(workload, seed)
        try:
            ref = workloads.reference(program, "vectorized")
            out.append(oracle.summarize(ref, program.n_events))
        finally:
            workloads.tear_down(program)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3, 4, 5])
    parser.add_argument("--workloads", nargs="*", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS),
                        help="entries to regenerate; the others are kept")
    args = parser.parse_args()
    os.environ.setdefault("REPRO_BENCH_DATA", str(HERE.parent / ".perfbench_work" / "data"))
    table = oracle.load_reference() if oracle.REFERENCE_FILE.exists() else {}
    for name in args.workloads:
        workload = workloads.WORKLOADS[name]
        rows = summaries(workload, args.seeds)
        base = rows[0]
        table[name] = {
            stat: {
                "value": value,
                "rtol": max(FLOOR, SAFETY * max(abs(r[stat] - value) / abs(value)
                                                for r in rows)),
            }
            for stat, value in base.items()
        }
        print(name, json.dumps(table[name]), flush=True)
    with open(oracle.REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
