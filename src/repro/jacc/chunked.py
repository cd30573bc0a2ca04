"""The ordered-chunk CPU engine shared by ``threads`` and ``multiprocess``.

Both CPU pools run the same decomposition and the same fold; they
differ only in what executes a chunk (a pool thread over the caller's
captures, or a pool process over shared-memory copies).  Determinism
comes from three pieces:

* **Fixed decomposition.**  The flattened index space is cut by
  :func:`chunk_grid` into :data:`DEFAULT_CHUNKS` windows, a function of
  the extent only, never of the worker count — so *what* is computed
  per chunk is invariant to how many workers execute the chunks.

* **Ordered deposit replay (histograms).**  Scalar kernels accumulate
  through ``Hist3.push``, whose float adds are non-associative; per-
  worker partial histograms, or pushes from several workers into one
  histogram, would make the per-bin fold depend on the partition or
  on scheduling.  Instead every chunk gets its own
  :class:`RecordingHist3` per histogram capture, logging
  ``(flat_bin, weight, err_sq)`` in call order, and the parent
  replays the logs in ascending chunk order with ``np.add.at``
  (unbuffered, element-order-sequential).  Ascending flat chunks *are*
  the serial back end's row-major iteration order, so the per-bin fold
  is the serial fold: **bit-identical to the serial oracle for any
  worker count**.

* **Deterministic pairwise tree (scalars).**  ``parallel_reduce``
  computes one partial per fixed chunk and combines them with
  :func:`pairwise_tree`, a combine order fixed by the chunk grid ⇒ the
  same result for every worker count.  ``max``/``min`` are exactly
  associative, so the tree equals the serial fold bit for bit; ``+``
  is exact for integer-valued floats and last-ulp re-associated
  otherwise.

The contract this rests on: element bodies accumulate *only* through
a ``Hist3`` capture (``push``/``push_many``), and write any other
array capture at indices disjoint between index tuples.  With one
worker a launch runs in process over the same chunk grid, so results
are identical either way.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.jacc.backend import Backend, BackendError, REDUCE_OPS
from repro.jacc.jit import GLOBAL_JIT
from repro.jacc.kernels import Captures, Kernel, normalize_dims
from repro.jacc.workers import resolve_workers

#: fixed number of chunks the flattened index space is cut into; a
#: function of nothing but this constant and the extent, so per-chunk
#: work (and therefore every reduction's combine tree) is invariant to
#: the worker count
DEFAULT_CHUNKS = 16


# ---------------------------------------------------------------------------
# deterministic building blocks
# ---------------------------------------------------------------------------

def chunk_grid(total: int, n_chunks: int = DEFAULT_CHUNKS) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` windows of the flattened index space.

    Depends only on ``total`` and ``n_chunks`` — never on the worker
    count — with any remainder spread over the leading chunks (the same
    convention as :func:`repro.mpi.decomposition.rank_range`).
    """
    if total <= 0:
        return []
    n = min(int(total), int(n_chunks))
    step, rem = divmod(int(total), n)
    out: List[Tuple[int, int]] = []
    start = 0
    for c in range(n):
        size = step + (1 if c < rem else 0)
        out.append((start, start + size))
        start += size
    return out


def pairwise_tree(values: Sequence[Any], combine: Callable[[Any, Any], Any]) -> Any:
    """Fold ``values`` with a fixed pairwise tree.

    Level by level, adjacent pairs are combined left to right and an
    odd tail is carried to the next level.  The combine order is a pure
    function of ``len(values)``, which is what makes tree-combined
    partials reproducible: as long as the *partials* are fixed (fixed
    chunk grid), the result is bit-identical no matter how many workers
    produced them or in what order they finished.
    """
    vals = list(values)
    if not vals:
        raise BackendError("pairwise_tree of no values")
    while len(vals) > 1:
        nxt = [combine(vals[i], vals[i + 1]) for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


# ---------------------------------------------------------------------------
# per-chunk histogram stand-in
# ---------------------------------------------------------------------------

def _is_histogram(value: Any) -> bool:
    """Duck-typed Hist3 detection (kept structural so the jacc layer
    does not import :mod:`repro.core`)."""
    return (
        hasattr(value, "push")
        and hasattr(value, "grid")
        and hasattr(value, "flat_signal")
    )


class RecordingHist3:
    """Order-preserving deposit recorder standing in for ``Hist3``.

    Implements the accumulation surface kernel element bodies use
    (``push`` — bin arithmetic identical to ``Hist3.push`` — and
    ``push_many``), but instead of touching a signal array it records
    ``(flat_bin, weight, err_sq)`` in call order.  The parent replays
    the log with ``np.add.at``, which applies unbuffered element by
    element: the per-bin accumulation order, and therefore every
    floating-point rounding step, matches a serial execution of the
    same index window exactly.
    """

    def __init__(self, grid: Any, track_errors: bool) -> None:
        self.grid = grid
        self.track_errors = bool(track_errors)
        self._idx: List[int] = []
        self._w: List[float] = []
        self._e: List[float] = []

    def push(self, c0: float, c1: float, c2: float,
             weight: float, err_sq: float = 0.0) -> bool:
        grid = self.grid
        mn, w, nb = grid.minimum, grid.widths, grid.bins
        i0 = int((c0 - mn[0]) // w[0])
        i1 = int((c1 - mn[1]) // w[1])
        i2 = int((c2 - mn[2]) // w[2])
        if not (0 <= i0 < nb[0] and 0 <= i1 < nb[1] and 0 <= i2 < nb[2]):
            return False
        self._idx.append((i0 * nb[1] + i1) * nb[2] + i2)
        self._w.append(float(weight))
        if self.track_errors:
            self._e.append(float(err_sq))
        return True

    def push_many(self, coords: np.ndarray, weights: np.ndarray,
                  err_sq: Optional[np.ndarray] = None, *,
                  scatter_impl: str = "atomic") -> int:
        flat, inside = self.grid.bin_index(np.asarray(coords, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != inside.shape:
            weights = np.broadcast_to(weights, inside.shape)
        self._idx.extend(int(i) for i in flat[inside].ravel())
        self._w.extend(float(v) for v in weights[inside].ravel())
        if self.track_errors:
            if err_sq is None:
                self._e.extend(0.0 for _ in range(int(inside.sum())))
            else:
                err_sq = np.broadcast_to(
                    np.asarray(err_sq, dtype=np.float64), inside.shape
                )
                self._e.extend(float(v) for v in err_sq[inside].ravel())
        return int(inside.sum())

    def harvest(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The deposit log as dense arrays (idx, weights, err_sq|None)."""
        idx = np.asarray(self._idx, dtype=np.int64)
        w = np.asarray(self._w, dtype=np.float64)
        e = np.asarray(self._e, dtype=np.float64) if self.track_errors else None
        return idx, w, e


def replay_deposits(
    hist: Any, logs: Sequence[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]
) -> None:
    """Apply deposit logs in the given order (``np.add.at`` semantics)."""
    flat_signal = hist.flat_signal
    flat_err = getattr(hist, "flat_error_sq", None)
    for idx, w, e in logs:
        if idx.size == 0:
            continue
        np.add.at(flat_signal, idx, w)
        if flat_err is not None and e is not None:
            np.add.at(flat_err, idx, e)


def recording_captures(captures: Captures) -> Tuple[Captures, Dict[str, RecordingHist3]]:
    """One chunk's view of ``captures``: every histogram swapped for a
    fresh :class:`RecordingHist3`, every other capture shared."""
    ctx = Captures(**vars(captures))
    recorders: Dict[str, RecordingHist3] = {}
    for attr, value in vars(captures).items():
        if _is_histogram(value):
            recorders[attr] = RecordingHist3(
                value.grid, getattr(value, "flat_error_sq", None) is not None
            )
            setattr(ctx, attr, recorders[attr])
    return ctx, recorders


# ---------------------------------------------------------------------------
# one chunk, wherever it runs
# ---------------------------------------------------------------------------

def chunk_loop(backend: str, task: Dict[str, Any]) -> Callable:
    """The JIT flat loop a chunk task runs (reduce tasks carry an ``op``)."""
    ndim = len(task["dims"])
    if "op" in task:
        return GLOBAL_JIT.loop_reduce_flat(task["kernel"], backend, ndim)
    return GLOBAL_JIT.loop_for_flat(task["kernel"], backend, ndim)


def run_chunk(
    backend: str, task: Dict[str, Any], ctx: Captures,
    recorders: Dict[str, RecordingHist3],
) -> Any:
    """Execute one chunk task over ``ctx``.

    A ``parallel_reduce`` task returns its partial; a ``parallel_for``
    task returns the deposit log of each recorder, keyed by capture.
    """
    loop = chunk_loop(backend, task)
    element, dims, start, stop = (task["element"], task["dims"],
                                  task["start"], task["stop"])
    if "op" in task:
        combine, init = REDUCE_OPS[task["op"]]
        return float(loop(element, ctx, dims, combine, init, start, stop))
    loop(element, ctx, dims, start, stop)
    return {attr: rec.harvest() for attr, rec in recorders.items()}


class ChunkedBackend(Backend):
    """``parallel_for`` / ``parallel_reduce`` over the fixed chunk grid.

    Subclasses supply the pool: :meth:`_map` runs :func:`run_chunk` for
    every task and returns the results in task (= chunk) order.  With
    one worker the launch runs in process and :meth:`_map` is not used.
    """

    device_kind = "cpu"
    #: environment variable read for the worker count
    workers_env: str

    def __init__(self, n_workers: Optional[int] = None) -> None:
        self._explicit_workers = n_workers

    @property
    def n_workers(self) -> int:
        """Effective worker count: explicit, then env, then CPU count."""
        return resolve_workers(self.workers_env, self._explicit_workers)

    @abstractmethod
    def _map(self, kernel: Kernel, captures: Captures,
             tasks: List[Dict[str, Any]]) -> List[Any]:
        """Run every chunk task on the pool; results in task order."""

    def _tasks(self, kernel: Kernel, dims: Tuple[int, ...],
               op: Optional[str] = None) -> List[Dict[str, Any]]:
        """One task per chunk of the grid; reduce tasks carry ``op``."""
        extra = {} if op is None else {"op": op}
        tasks = [
            dict(kernel=kernel.name, element=kernel.element, dims=dims,
                 chunk=c, start=start, stop=stop, **extra)
            for c, (start, stop) in enumerate(chunk_grid(math.prod(dims)))
        ]
        if tasks:
            # specialize here, once, rather than racing in pool threads
            chunk_loop(self.name, tasks[0])
        return tasks

    def run_parallel_for(
        self, dims: int | Tuple[int, ...], kernel: Kernel, captures: Captures
    ) -> None:
        dims = normalize_dims(dims)
        tasks = self._tasks(kernel, dims)
        if not tasks:
            return
        if self.n_workers == 1:
            # One flat loop over the whole range: the ascending-chunk
            # order the replay below reproduces, so results match.
            loop = chunk_loop(self.name, tasks[0])
            loop(kernel.element, captures, dims, 0, tasks[-1]["stop"])
            return
        logs = self._map(kernel, captures, tasks)
        for attr, value in vars(captures).items():
            if _is_histogram(value):
                replay_deposits(value, [log[attr] for log in logs])

    def run_parallel_reduce(
        self,
        dims: int | Tuple[int, ...],
        kernel: Kernel,
        captures: Captures,
        op: str = "+",
    ) -> float:
        dims = normalize_dims(dims)
        try:
            combine, init = REDUCE_OPS[op]
        except KeyError:
            raise BackendError(f"unknown reduction op {op!r}") from None
        tasks = self._tasks(kernel, dims, op=op)
        if not tasks:
            return float(init)
        if self.n_workers == 1:
            partials = [run_chunk(self.name, t, captures, {}) for t in tasks]
        else:
            partials = self._map(kernel, captures, tasks)
        return float(pairwise_tree(partials, combine))
