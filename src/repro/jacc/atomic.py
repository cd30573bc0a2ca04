"""Atomic accumulation primitives.

The paper's Hist3 increments bin values "with atomic operations" so
thousands of device threads can push concurrently.  The host-side
equivalents here:

* :func:`atomic_add` — unbuffered scatter-add (``np.add.at``): correct
  under duplicate indices, which is precisely the guarantee a device
  ``atomicAdd`` gives;
* :func:`atomic_add_scalar` — the per-element form used inside scalar
  kernel bodies.  It is a plain read-modify-write, *not* atomic: no
  two workers ever call it on the same array.  The serial back end is
  single-threaded, and the chunked threads/multiprocess back ends give
  every chunk its own deposit recorder and replay the logs in chunk
  order (:mod:`repro.jacc.chunked`).  Routing through this function
  keeps the access pattern explicit and auditable.
"""

from __future__ import annotations

import numpy as np


def atomic_add(target_flat: np.ndarray, indices: np.ndarray, values: np.ndarray | float) -> None:
    """Scatter-add with full duplicate-index correctness.

    ``target_flat[indices[j]] += values[j]`` for every j, applied
    unbuffered (unlike ``target_flat[indices] += values``, which drops
    duplicate contributions — the classic GPU histogram race that
    ``atomicAdd`` exists to prevent).
    """
    np.add.at(target_flat, indices, values)


def atomic_add_scalar(target_flat: np.ndarray, index: int, value: float) -> None:
    """Single-element atomic add used by scalar kernel bodies."""
    target_flat[index] += value
