"""Per-layer accounting for the traced pass.

The benchmark times the calls into each layer's entry points itself:
:func:`instrumented` swaps timing wrappers onto the functions and methods
listed in :data:`TARGETS` for the duration of a ``with`` block and puts
the originals back on exit.  Nothing under ``src/`` is edited.

Self time is the wrapped call's duration minus the time spent in wrapped
calls nested inside it on the same thread, so the layer times of one
thread add up to at most that thread's wall time.  The accumulators live
in shared memory created before the shard pool forks, so element bodies
and chunk decodes that run in pool workers are counted too; those are
kept apart (``worker``) because they overlap the parent's wall time.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: layer self-time accumulators, in seconds
TIME_LAYERS = (
    "grid.bin_index_s",
    "sort.comb_s",
    "intersections.fill_s",
    "mdnorm.prepass_s",
    "mdnorm.busy_s",
    "binmd.busy_s",
    "hist3.scatter_s",
    "nexus.load_s",
    "nexus.decode_s",
    "shard.fanout_s",
    "shard.replay_s",
    "mpi.reduce_s",
    "mpi.barrier_wait_s",
    "steal.rank_idle_s",
    "checkpoint.save_s",
    #: the wrappers' own counting work, kept out of every layer
    "bench.overhead_s",
)

#: work counters, summed
COUNTS = (
    "grid.bin_index_points",
    "sort.rows",
    "mdnorm.live_segments",
    "mdnorm.segment_slots",
    "mdnorm.trajectories",
    "binmd.lanes",
    "hist3.deposits",
    "jacc.element_calls",
    "shard.logged_deposits",
    "nexus.chunks_decoded",
    "nexus.worker_bytes_read",
    "nexus.tile_hits",
    "nexus.tile_misses",
    "checkpoint.writes",
)

#: high-water marks
PEAKS = ("nexus.peak_resident_bytes", "steal.queue_depth_max")


class LayerClock:
    """Thread-aware self-time and counter accumulators.

    Values are kept twice: for the process that created the clock and
    for every other process (forked pool workers) together.
    """

    def __init__(self) -> None:
        self.names: Tuple[str, ...] = TIME_LAYERS + COUNTS + PEAKS
        self._slot = {name: i for i, name in enumerate(self.names)}
        # created before the pool forks, so workers write the same memory
        self._acc = multiprocessing.get_context("fork").Array("d", 2 * len(self.names))
        self._pid = os.getpid()
        self._tls = threading.local()

    def in_worker(self) -> bool:
        return os.getpid() != self._pid

    def _index(self, name: str) -> int:
        return self._slot[name] + (len(self.names) if self.in_worker() else 0)

    def add(self, name: str, value: float) -> None:
        i = self._index(name)
        with self._acc.get_lock():
            self._acc[i] += value

    def peak(self, name: str, value: float) -> None:
        i = self._index(name)
        with self._acc.get_lock():
            if value > self._acc[i]:
                self._acc[i] = value

    def reset(self) -> None:
        with self._acc.get_lock():
            for i in range(len(self._acc)):
                self._acc[i] = 0.0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{"local": {...}, "worker": {...}}`` of every accumulator."""
        with self._acc.get_lock():
            values = list(self._acc)
        n = len(self.names)
        return {
            "local": dict(zip(self.names, values[:n])),
            "worker": dict(zip(self.names, values[n:])),
        }

    def call(
        self,
        layer: Optional[str],
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        count: Optional[Callable[..., None]],
    ) -> Any:
        stack: Optional[List[List[float]]] = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        frame = [0.0]  # time spent in nested wrapped calls
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if layer is not None:
                self.add(layer, (t1 - t0) - frame[0])
        if count is not None:
            count(self, out, *args, **kwargs)
        t2 = time.perf_counter()
        self.add("bench.overhead_s", t2 - t1)
        if stack:
            # the caller's self time excludes this call and its counting
            stack[-1][0] += t2 - t0 if layer is not None else t2 - t1
        return out


# ---------------------------------------------------------------------------
# counters run after each wrapped call
# ---------------------------------------------------------------------------

def _n_events(events: Any) -> int:
    n = getattr(events, "n_events", None)
    if n is not None:
        return int(n)
    return int(np.asarray(events).shape[0])


def _count_sort_rows(clock: LayerClock, out: Any, values: np.ndarray, *a: Any, **k: Any) -> None:
    rows, width = values.shape
    clock.add("sort.rows", rows)
    clock.add("mdnorm.live_segments", np.count_nonzero(values[:, 1:] > values[:, :-1]))
    clock.add("mdnorm.segment_slots", rows * max(width - 1, 0))


def _count_sort_one(clock: LayerClock, out: Any, values: np.ndarray,
                    n: Optional[int] = None) -> None:
    n = len(values) if n is None else int(n)
    live = values[:n]
    clock.add("sort.rows", 1)
    clock.add("mdnorm.live_segments", np.count_nonzero(live[1:] > live[:-1]))
    clock.add("mdnorm.segment_slots", max(n - 1, 0))


def _count_trajectories(clock: LayerClock, out: Any, hist: Any, transforms: Any,
                        det_directions: Any, *a: Any, **k: Any) -> None:
    clock.add("mdnorm.trajectories",
              np.asarray(transforms).shape[0] * np.asarray(det_directions).shape[0])


def _count_lanes(clock: LayerClock, out: Any, hist: Any, events: Any,
                 transforms: Any, *a: Any, **k: Any) -> None:
    clock.add("binmd.lanes", np.asarray(transforms).shape[0] * _n_events(events))


def _count_element_calls(clock: LayerClock, out: Any, task: Dict[str, Any],
                         *a: Any, **k: Any) -> None:
    window = task.get("window")
    a0, b0 = task["range"]
    n_inner = int(window.shape[0]) if window is not None else int(b0 - a0)
    clock.add("jacc.element_calls", int(task["n_outer"]) * n_inner)


def _count_logged(clock: LayerClock, out: Any, hist: Any, logs: Any) -> None:
    clock.add("shard.logged_deposits", sum(int(log[0].size) for log in logs))


def _count_chunk(clock: LayerClock, out: Any, enc: bytes, *a: Any, **k: Any) -> None:
    clock.add("nexus.chunks_decoded", 1)
    if clock.in_worker():
        # in-process reads already reach the tracer's h5lite.bytes_read
        clock.add("nexus.worker_bytes_read", len(enc))


def _count_points(clock: LayerClock, out: Any, grid: Any, coords: Any) -> None:
    clock.add("grid.bin_index_points", np.asarray(coords).size // 3)


def _count_deposits(clock: LayerClock, out: Any, target: Any, idx: Any, *a: Any) -> None:
    clock.add("hist3.deposits", np.asarray(idx).size)


def _count_queue(clock: LayerClock, out: Any, *a: Any) -> None:
    clock.peak("steal.queue_depth_max", float(out))


def _count_write(clock: LayerClock, out: Any, *a: Any, **k: Any) -> None:
    clock.add("checkpoint.writes", 1)


#: (module, attribute path, layer, counter).  A dotted attribute path
#: names a method; the wrapper replaces it on that class.
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Callable[..., None]]], ...] = (
    ("repro.core.grid", "HKLGrid.bin_index", "grid.bin_index_s", _count_points),
    ("repro.core.intersections", "comb_sort_rows", "sort.comb_s", _count_sort_rows),
    ("repro.core.mdnorm", "comb_sort", "sort.comb_s", _count_sort_one),
    ("repro.core.intersections", "fill_crossings_batch", "intersections.fill_s", None),
    ("repro.core.mdnorm", "max_intersections", "mdnorm.prepass_s", None),
    ("repro.core.sharding", "max_intersections", "mdnorm.prepass_s", None),
    ("repro.core.cross_section", "mdnorm", "mdnorm.busy_s", _count_trajectories),
    ("repro.core.cross_section", "sharded_mdnorm", "mdnorm.busy_s", _count_trajectories),
    ("repro.mpi.stealing", "mdnorm_shard_context", "mdnorm.busy_s", _count_trajectories),
    ("repro.core.cross_section", "bin_events", "binmd.busy_s", _count_lanes),
    ("repro.core.cross_section", "sharded_binmd", "binmd.busy_s", _count_lanes),
    ("repro.mpi.stealing", "binmd_shard_context", "binmd.busy_s", _count_lanes),
    ("repro.core.hist3", "Hist3._scatter", "hist3.scatter_s", _count_deposits),
    ("repro.core.workflow", "load_md", "nexus.load_s", None),
    ("repro.core.sharding", "read_window", "nexus.load_s", None),
    ("repro.nexus.h5lite", "decode_chunk", "nexus.decode_s", _count_chunk),
    ("repro.core.sharding", "_run_shards", "shard.fanout_s", None),
    ("repro.mpi.stealing", "execute_shard_range", "shard.fanout_s", None),
    ("repro.core.sharding", "replay_deposits", "shard.replay_s", _count_logged),
    ("repro.mpi.comm", "Comm.Reduce", "mpi.reduce_s", None),
    ("repro.mpi.comm", "Comm.Allreduce", "mpi.reduce_s", None),
    ("repro.mpi.comm", "Comm.allgather", "mpi.reduce_s", None),
    ("repro.mpi.comm", "Comm.Barrier", "mpi.barrier_wait_s", None),
    ("repro.mpi.stealing", "StealQueue.depth", None, _count_queue),
    ("repro.core.checkpoint", "CheckpointManager.save_run", "checkpoint.save_s", _count_write),
)


def _element_layer(task: Dict[str, Any]) -> str:
    name = getattr(task.get("element"), "__name__", "")
    return "mdnorm.busy_s" if "mdnorm" in name else "binmd.busy_s"


def _wrap(clock: LayerClock, fn: Callable[..., Any], layer: Optional[str],
          count: Optional[Callable[..., None]]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return clock.call(layer, fn, args, kwargs, count)

    return wrapper


def _wrap_shard_body(clock: LayerClock, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Element bodies count toward the kernel whose element they run."""

    @functools.wraps(fn)
    def wrapper(task: Dict[str, Any], *args: Any, **kwargs: Any) -> Any:
        return clock.call(_element_layer(task), fn, (task,) + args, kwargs,
                          _count_element_calls)

    return wrapper


def _wrap_tiles(clock: LayerClock, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Tile-cache lookups: hit/miss deltas and the resident high-water."""

    @functools.wraps(fn)
    def wrapper(manager: Any, ci: int) -> Any:
        stats = manager.stats
        hits, misses = stats.hits, stats.misses
        out = clock.call("nexus.load_s", fn, (manager, ci), {}, None)
        clock.add("nexus.tile_hits", stats.hits - hits)
        clock.add("nexus.tile_misses", stats.misses - misses)
        clock.peak("nexus.peak_resident_bytes", float(stats.peak_resident_bytes))
        return out

    return wrapper


class _IdleClock:
    """Stands in for the ``time`` module inside the stealing executor so
    a rank's idle sleeps (no task to claim yet) are timed."""

    def __init__(self, clock: LayerClock, real: Any) -> None:
        self._real = real
        self.sleep = _wrap(clock, real.sleep, "steal.rank_idle_s", None)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


@contextmanager
def instrumented(clock: LayerClock) -> Iterator[LayerClock]:
    """Install the timing wrappers; restore every original on exit."""
    restore: List[Tuple[Any, str, Any]] = []

    def swap(owner: Any, attr: str, new: Any) -> None:
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for module_name, path, layer, count in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                swap(owner, attr, staticmethod(_wrap(clock, raw.__func__, layer, count)))
            else:
                swap(owner, attr, _wrap(clock, raw, layer, count))
        sharding = importlib.import_module("repro.core.sharding")
        swap(sharding, "_shard_body", _wrap_shard_body(clock, sharding._shard_body))
        tiles = importlib.import_module("repro.nexus.tiles")
        swap(tiles.TileManager, "chunk", _wrap_tiles(clock, tiles.TileManager.chunk))
        stealing = importlib.import_module("repro.mpi.stealing")
        swap(stealing, "time", _IdleClock(clock, stealing.time))
        yield clock
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced reduction
# ---------------------------------------------------------------------------

def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(
    snap: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    wall_s: float,
    concurrency: int,
) -> Dict[str, float]:
    """Per-layer values of one traced reduction.  ``campaign.loop_self_s``
    is the in-process thread time (wall x rank threads) the layers left
    unattributed: the campaign loop's own share.  Negative would mean
    the self times overlap."""
    local, worker = snap["local"], snap["worker"]
    both = {name: local[name] + worker[name] for name in local}
    out: Dict[str, float] = {}
    for name in TIME_LAYERS:
        if name != "bench.overhead_s":
            out[name] = both[name]
    for name in ("grid.bin_index_points", "sort.rows", "mdnorm.trajectories",
                 "binmd.lanes", "hist3.deposits", "jacc.element_calls",
                 "shard.logged_deposits", "nexus.chunks_decoded", "checkpoint.writes"):
        out[name] = both[name]
    out["mdnorm.pad_efficiency"] = ratio(both["mdnorm.live_segments"],
                                          both["mdnorm.segment_slots"])
    out["nexus.bytes_read"] = counters.get("h5lite.bytes_read", 0.0) + both["nexus.worker_bytes_read"]
    out["nexus.tile_hit_ratio"] = ratio(both["nexus.tile_hits"],
                                         both["nexus.tile_hits"] + both["nexus.tile_misses"])
    out["nexus.peak_resident_bytes"] = max(local["nexus.peak_resident_bytes"],
                                           worker["nexus.peak_resident_bytes"])
    out["steal.queue_depth_max"] = local["steal.queue_depth_max"]
    out["jacc.launches"] = counters.get("jacc.launches", 0.0)
    out["shard.tasks"] = (counters.get("mdnorm.shard_tasks", 0.0)
                          + counters.get("binmd.shard_tasks", 0.0))
    out["steal.steals"] = counters.get("steals", 0.0)
    attributed = sum(local[name] for name in TIME_LAYERS)
    out["campaign.loop_self_s"] = wall_s * concurrency - attributed
    return out


#: counts fixed by the inputs alone: two traced passes must agree exactly
INPUT_COUNTS = (
    "grid.bin_index_points",
    "sort.rows",
    "mdnorm.trajectories",
    "binmd.lanes",
    "hist3.deposits",
    "jacc.element_calls",
    "shard.logged_deposits",
    "shard.tasks",
    "nexus.chunks_decoded",
    "nexus.bytes_read",
    "checkpoint.writes",
    "jacc.launches",
)
