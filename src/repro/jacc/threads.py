"""Threads back end: the coarse-grained CPU engine.

The paper's C++ proxy parallelizes the (symmetry op x detector) loop
with OpenMP ``collapse(2)``; JACC.jl's Threads back end does the same
with Julia tasks.  Here the flattened index space is cut into the fixed
chunk grid of :mod:`repro.jacc.chunked` and the chunks run on a thread
pool (``REPRO_NUM_THREADS``, default the machine's CPU count).  Each
chunk runs the JIT-specialized flat loop nest over the caller's
captures, except that every histogram capture is swapped for the
chunk's own :class:`~repro.jacc.chunked.RecordingHist3`; the parent
replays the logs in ascending chunk order, and ``parallel_reduce``
combines the per-chunk partials with the pairwise tree.  No two
threads ever add into the same histogram, so results are
bit-identical to the serial back end for every worker count.

On a single-core host the pool degenerates gracefully (the structure is
exercised, the speedup is not) — DESIGN.md section 2 documents this as
part of the hardware substitution.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.jacc.backend import register_backend
from repro.jacc.chunked import ChunkedBackend, recording_captures, run_chunk
from repro.jacc.kernels import Captures, Kernel
from repro.jacc.workers import THREADS_ENV, resolve_workers


def _default_workers() -> int:
    """Worker count from ``REPRO_NUM_THREADS`` (validated) or CPU count.

    Historically this went through a bare ``int()`` — garbage crashed
    with an opaque ``ValueError`` and ``0``/negatives were silently
    clamped to 1.  Both now raise a clear
    :class:`~repro.jacc.backend.BackendError` via the parser shared
    with the multiprocess back end (see :mod:`repro.jacc.workers`).
    """
    return resolve_workers(THREADS_ENV)


class ThreadsBackend(ChunkedBackend):
    name = "threads"
    workers_env = THREADS_ENV

    def __init__(self, n_workers: Optional[int] = None) -> None:
        super().__init__(n_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _map(self, kernel: Kernel, captures: Captures,
             tasks: List[Dict[str, Any]]) -> List[Any]:
        def run(task: Dict[str, Any]) -> Any:
            ctx, recorders = recording_captures(captures)
            return run_chunk(self.name, task, ctx, recorders)

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="jacc"
            )
        futures = [self._pool.submit(run, t) for t in tasks]
        return [f.result() for f in futures]  # re-raises worker exceptions


THREADS = register_backend(ThreadsBackend())
