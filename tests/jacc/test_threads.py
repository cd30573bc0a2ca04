"""Unit tests specific to the threads back end."""

import sys

import numpy as np
import pytest

from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.jacc import get_backend
from repro.jacc.backend import BackendError
from repro.jacc.kernels import Kernel, make_captures
from repro.jacc.threads import ThreadsBackend


def _fill_kernel():
    return Kernel(
        name="test_fill",
        element=lambda ctx, i: ctx.out.__setitem__(i, i + 1),
    )


class TestChunking:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 100])
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_every_index_covered_exactly_once(self, n, workers):
        be = ThreadsBackend(n_workers=workers)
        out = np.zeros(n)
        be.parallel_for(n, _fill_kernel(), make_captures(out=out))
        assert np.allclose(out, np.arange(1, n + 1))


class TestReduction:
    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_partials_combine(self, workers):
        be = ThreadsBackend(n_workers=workers)
        k = Kernel(name="test_sum_i", element=lambda ctx, i: float(i))
        assert be.parallel_reduce(100, k, make_captures()) == pytest.approx(4950.0)

    def test_max_across_chunks(self):
        be = ThreadsBackend(n_workers=4)
        x = np.array([1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0])
        k = Kernel(name="test_max_chunks", element=lambda ctx, i: float(ctx.x[i]))
        assert be.parallel_reduce(8, k, make_captures(x=x), op="max") == 9.0

    def test_unknown_op(self):
        be = ThreadsBackend(n_workers=2)
        k = Kernel(name="test_op", element=lambda ctx, i: 0.0)
        with pytest.raises(BackendError):
            be.parallel_reduce(4, k, make_captures(), op="median")


class TestErrorPropagation:
    def test_worker_exception_reraised(self):
        be = ThreadsBackend(n_workers=4)

        def boom(ctx, i):
            if i == 5:
                raise RuntimeError("worker exploded")

        k = Kernel(name="test_boom", element=boom)
        with pytest.raises(RuntimeError, match="worker exploded"):
            be.parallel_for(16, k, make_captures())


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert ThreadsBackend().n_workers == 3

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert ThreadsBackend(n_workers=2).n_workers == 2


def _push_element(ctx, i):
    ctx.hist.push(ctx.c[i, 0], ctx.c[i, 1], ctx.c[i, 2], ctx.w[i], ctx.w[i])


PUSH = Kernel(name="test_threads_push", element=_push_element)

#: few bins, many pushes: every bin is hit from every chunk
STRESS_GRID = HKLGrid(basis=np.eye(3), minimum=(-1.0, -1.0, -1.0),
                      maximum=(1.0, 1.0, 1.0), bins=(2, 2, 2))


@pytest.fixture
def fast_switching():
    """Force a GIL hand-off every microsecond, so a read-modify-write
    shared between pool threads would lose updates."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def _stress_fill(backend, w, seed):
    c = np.random.default_rng(seed).uniform(-0.99, 0.99, size=(w.size, 3))
    hist = Hist3(STRESS_GRID, track_errors=True)
    backend.parallel_for(w.size, PUSH, make_captures(hist=hist, c=c, w=w))
    return hist


class TestNoLostUpdates:
    """Pool threads never add into a shared histogram: exact totals,
    and the serial bits, at every worker count."""

    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize("weights", ["integer", "float"])
    def test_pushes_bit_identical_to_serial(self, weights, workers,
                                            fast_switching):
        rng = np.random.default_rng(workers)
        if weights == "integer":
            w = rng.integers(1, 5, size=20000).astype(np.float64)
        else:
            w = rng.uniform(0.1, 2.0, size=20000)
        got = _stress_fill(ThreadsBackend(n_workers=workers), w, workers)
        serial = _stress_fill(get_backend("serial"), w, workers)
        if weights == "integer":  # exact sums: a lost update shows here
            assert got.signal.sum() == w.sum()
            assert got.error_sq.sum() == w.sum()
        assert np.array_equal(got.signal, serial.signal)
        assert np.array_equal(got.error_sq, serial.error_sq)

    def test_float_sum_same_for_every_worker_count(self, fast_switching):
        k = Kernel(name="test_threads_float_sum",
                   element=lambda ctx, i: float(ctx.x[i]))
        for seed in range(8):
            x = np.random.default_rng(seed).standard_normal(5001)
            sums = [ThreadsBackend(n_workers=n).parallel_reduce(
                        x.size, k, make_captures(x=x), op="+")
                    for n in (1, 4)]
            assert sums[0] == sums[1], seed
