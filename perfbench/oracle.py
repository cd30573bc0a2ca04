"""Output checks for the benchmark's reductions.

Two checks, both on the three histograms a reduction returns (BinMD,
MDNorm and their quotient, the cross-section):

* :func:`mismatches` — every reduction must equal its in-process
  reference **bitwise**.  The reference is the single-process,
  in-memory, plain-loop reduction of the same inputs.
* :func:`summary_problems` — the reference itself must match the stored
  per-workload summary (``reference.json``) within the stated relative
  tolerances, so a change that breaks every path alike still fails.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping

import numpy as np

OUTPUTS = ("binmd", "mdnorm", "cross_section")

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def _signal(result: Any, name: str) -> np.ndarray:
    return np.ascontiguousarray(getattr(result, name).signal)


def mismatches(result: Any, reference: Any) -> List[str]:
    """Names of the outputs of ``result`` that differ from ``reference``
    in any bit (shape, dtype or value; NaNs compare by bit pattern)."""
    bad = []
    for name in OUTPUTS:
        got, want = _signal(result, name), _signal(reference, name)
        if (got.shape != want.shape or got.dtype != want.dtype
                or got.tobytes() != want.tobytes()):
            bad.append(name)
    return bad


def summarize(result: Any, n_events: int) -> Dict[str, float]:
    """Seed-robust statistics of one reduction's outputs."""
    binmd = _signal(result, "binmd")
    mdnorm = _signal(result, "mdnorm")
    cross = _signal(result, "cross_section")
    return {
        # weighted (event, symmetry-image) pairs landing in the grid
        "binmd_per_event": float(binmd.sum()) / float(n_events),
        "mdnorm_sum": float(mdnorm.sum()),
        "mdnorm_covered_frac": float(np.count_nonzero(mdnorm > 0)) / mdnorm.size,
        # the division defines the cross-section exactly where MDNorm > 0
        "cross_section_finite_frac": float(np.count_nonzero(np.isfinite(cross))) / cross.size,
    }


def load_reference(path: Path = REFERENCE_FILE) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def summary_problems(summary: Mapping[str, float],
                     stored: Mapping[str, Mapping[str, float]]) -> List[str]:
    """Statistics outside ``value * (1 +- rtol)`` of the stored entry."""
    problems = []
    for name, entry in stored.items():
        got = summary.get(name)
        want, rtol = float(entry["value"]), float(entry["rtol"])
        if got is None or not abs(got - want) <= rtol * abs(want):
            problems.append(f"{name}={got!r} outside {want!r} +- {rtol:g} rel")
    return problems
