"""Multiprocess back end: intra-node scale-out past the GIL.

The paper's outermost parallel axis is MPI ranks over *runs*; inside a
rank the CPU engines are threads (GIL-serialized for Python bodies) or
the vectorized device proxy.  This back end adds the missing CPU
engine: the ordered-chunk engine of :mod:`repro.jacc.chunked` (fixed
chunk grid, per-chunk deposit logs replayed in ascending chunk order,
pairwise tree for reductions — bit-identical to serial for any worker
count) with the chunks executed on a persistent
``ProcessPoolExecutor`` (:data:`repro.jacc.workers.GLOBAL_POOL`) and
array captures shipped through ``multiprocessing.shared_memory``
instead of pickles.  It differs from ``threads`` only in that pool.

Capture sanitization: kernel *element* bodies must be picklable
(module-level functions, pickled by reference) — a closure or lambda
is rejected with a :class:`~repro.jacc.backend.BackendError` naming
the kernel before any task is submitted; ndarray captures travel via
shared memory and are copied back after the launch (so disjoint-write
kernels behave exactly as on the threads back end); objects whose
class sets ``__jacc_shareable__ = False`` (caches, cache entries) are
dropped to ``None`` — element bodies never touch them; anything else
is pickled.  With one worker the launch runs in-process over the same
chunk grid, so results are identical either way (and unpicklable
kernels run too).
"""

from __future__ import annotations

import itertools
import os
import pickle
from concurrent.futures import BrokenExecutor
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.jacc.backend import BackendError, register_backend
from repro.jacc.chunked import (
    ChunkedBackend,
    RecordingHist3,
    _is_histogram,
    run_chunk,
)
from repro.jacc.kernels import Captures, Kernel
from repro.jacc.workers import GLOBAL_POOL, PROCS_ENV
from repro.util import trace as _trace

if TYPE_CHECKING:  # imported where captures are shared, off the import path
    from multiprocessing import shared_memory


# ---------------------------------------------------------------------------
# capture transport (parent side)
# ---------------------------------------------------------------------------

def _shareable(value: Any) -> bool:
    return getattr(type(value), "__jacc_shareable__", True)


class _Transport:
    """One launch's shared-memory blocks + capture payload."""

    def __init__(self, captures: Captures) -> None:
        from multiprocessing import shared_memory

        self.payload: Dict[str, Tuple[str, ...]] = {}
        self.blocks: List[shared_memory.SharedMemory] = []
        self.writebacks: List[Tuple[np.ndarray, shared_memory.SharedMemory,
                                    Tuple[int, ...], str]] = []
        for attr, value in vars(captures).items():
            if _is_histogram(value):
                self.payload[attr] = (
                    "hist", value.grid,
                    getattr(value, "flat_error_sq", None) is not None,
                )
            elif isinstance(value, np.ndarray) and value.nbytes > 0 \
                    and not value.dtype.hasobject:
                shm = shared_memory.SharedMemory(create=True, size=value.nbytes)
                view = np.ndarray(value.shape, dtype=value.dtype, buffer=shm.buf)
                np.copyto(view, value)
                self.blocks.append(shm)
                self.payload[attr] = ("shm", shm.name, value.shape, value.dtype.str)
                if value.flags.writeable:
                    self.writebacks.append((value, shm, value.shape, value.dtype.str))
            elif not _shareable(value):
                self.payload[attr] = ("drop",)
            else:
                self.payload[attr] = ("obj", value)

    def write_back(self) -> None:
        for original, shm, shape, dtype in self.writebacks:
            original[...] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)

    def close(self) -> None:
        for shm in self.blocks:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.blocks.clear()


# ---------------------------------------------------------------------------
# cross-process trace context (schema v3)
# ---------------------------------------------------------------------------

#: per-worker-process task counter: one worker pid hosts many
#: short-lived tracers (one per chunk task), each restarting span_id at
#: 0 — the counter keeps their uid namespaces distinct
_WORKER_TASK_SEQ = itertools.count()


def _trace_ctx() -> Optional[Dict[str, Any]]:
    """The context a traced launch ships with every chunk task (None
    with tracing off — the untraced task payload is byte-identical to
    pre-v3)."""
    tracer = _trace.active_tracer()
    if not tracer.enabled:
        return None
    current = tracer.current_span()
    return {
        "campaign_id": tracer.campaign_id,
        "parent_uid": (current.uid if current is not None
                       else _trace.remote_parent()),
        "rank": _trace.current_rank(),
        "label": tracer.label,
        "profile": tracer.profile,
    }


def _worker_traced(task: Dict[str, Any], body: Callable[[], Any]) -> Any:
    """Run a chunk body under the task's trace context, if any.

    With context, the worker opens a ``chunk:<kernel>`` span under the
    dispatching span (via ``parent_uid`` — span ids never cross
    processes) in a fresh campaign tracer and returns an envelope the
    parent unwraps with :func:`_unwrap_traced`; without, the return
    value is the body's, untouched.
    """
    ctx = task.get("trace")
    if not ctx:
        return body()
    tracer = _trace.Tracer(
        label=ctx["label"], profile=ctx["profile"],
        campaign_id=ctx["campaign_id"],
        uid_ns=f"{os.getpid()}.{next(_WORKER_TASK_SEQ)}",
    )
    with _trace.rank_scope(ctx["rank"]), \
            _trace.parent_scope(ctx["parent_uid"]):
        with tracer.span(
            f"chunk:{task['kernel']}", kind="chunk",
            chunk=int(task.get("chunk", 0)),
            start=int(task["start"]), stop=int(task["stop"]),
            backend="multiprocess",
        ):
            payload = body()
    return {"__traced__": True, "payload": payload,
            "records": tracer.records,
            "epoch_unix": tracer.epoch_unix}


def _unwrap_traced(result: Any, tracer: "_trace.Tracer") -> Any:
    """Adopt a traced worker envelope into the parent tracer."""
    if isinstance(result, dict) and result.get("__traced__"):
        tracer.adopt_records(result["records"],
                             epoch_unix=result["epoch_unix"])
        return result["payload"]
    return result


# ---------------------------------------------------------------------------
# worker side (module-level: picklable under any start method)
# ---------------------------------------------------------------------------

def _open_captures(
    payload: Dict[str, Tuple[str, ...]],
) -> Tuple[Captures, List[shared_memory.SharedMemory], Dict[str, RecordingHist3]]:
    from multiprocessing import shared_memory

    ctx = Captures()
    opened: List[shared_memory.SharedMemory] = []
    hists: Dict[str, RecordingHist3] = {}
    for attr, spec in payload.items():
        kind = spec[0]
        if kind == "hist":
            rec = RecordingHist3(spec[1], spec[2])
            hists[attr] = rec
            setattr(ctx, attr, rec)
        elif kind == "shm":
            shm = shared_memory.SharedMemory(name=spec[1])
            opened.append(shm)
            setattr(
                ctx, attr,
                np.ndarray(spec[2], dtype=np.dtype(spec[3]), buffer=shm.buf),
            )
        elif kind == "drop":
            setattr(ctx, attr, None)
        else:
            setattr(ctx, attr, spec[1])
    return ctx, opened, hists


def _close_worker_shm(opened: List[shared_memory.SharedMemory]) -> None:
    """Close worker-side attachments; by the time this runs every numpy
    view into the buffers must have been dropped (BufferError otherwise,
    in which case the segment stays mapped until the worker exits)."""
    for shm in opened:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass




def _run_chunk_task(task: Dict[str, Any]) -> Any:
    """Execute one chunk task in a worker process."""
    def body() -> Any:
        ctx, opened, hists = _open_captures(task["captures"])
        try:
            return run_chunk("multiprocess", task, ctx, hists)
        finally:
            # Drop every reference into the shared buffers (the Captures
            # holds the views) before closing the attachments.
            ctx = None  # noqa: F841
            _close_worker_shm(opened)

    return _worker_traced(task, body)


# ---------------------------------------------------------------------------
# the back end
# ---------------------------------------------------------------------------

class MultiprocessBackend(ChunkedBackend):
    name = "multiprocess"
    workers_env = PROCS_ENV

    def _map(self, kernel: Kernel, captures: Captures,
             tasks: List[Dict[str, Any]]) -> List[Any]:
        try:
            pickle.dumps(kernel.element)
        except Exception as exc:
            raise BackendError(
                f"kernel {kernel.name!r}: its element body cannot be sent "
                f"to worker processes ({exc}); define it at module level "
                f"or run with {PROCS_ENV}=1"
            ) from exc
        transport = _Transport(captures)
        extra: Dict[str, Any] = {"captures": transport.payload}
        trace_ctx = _trace_ctx()
        if trace_ctx:
            extra["trace"] = trace_ctx
        tracer = _trace.active_tracer()
        try:
            try:
                pool = GLOBAL_POOL.executor(self.n_workers)
                futures = [pool.submit(_run_chunk_task, dict(t, **extra))
                           for t in tasks]
                results = [_unwrap_traced(f.result(), tracer)
                           for f in futures]
            except BrokenExecutor as exc:
                GLOBAL_POOL.dispose()
                raise BackendError(
                    "multiprocess worker pool broke mid-launch "
                    f"(kernel {kernel.name!r}); pool disposed, next launch "
                    "starts fresh"
                ) from exc
            transport.write_back()
            return results
        finally:
            transport.close()


MULTIPROC = register_backend(MultiprocessBackend())
