"""Cross-back-end semantics tests: the portability contract itself."""

import numpy as np
import pytest

from repro.jacc import (
    BackendError,
    Kernel,
    array,
    available_backends,
    get_backend,
    parallel_for,
    parallel_reduce,
    set_default_backend,
    to_host,
)
from repro.jacc.api import default_backend
from repro.jacc.kernels import make_captures

BACKENDS = ("serial", "threads", "vectorized")


def _saxpy_kernel():
    return Kernel(
        name="test_saxpy",
        element=lambda ctx, i: ctx.y.__setitem__(i, ctx.a * ctx.x[i] + ctx.y[i]),
        batch=lambda ctx, dims: ctx.y.__setitem__(slice(None), ctx.a * ctx.x + ctx.y),
    )


def _sum_sq_kernel():
    return Kernel(
        name="test_sum_sq",
        element=lambda ctx, i: float(ctx.x[i] ** 2),
        batch=lambda ctx, dims: ctx.x**2,
    )


def _pair_kernel():
    """2-D kernel writing op * value into a (n_ops, n) matrix."""

    def element(ctx, n, i):
        ctx.out[n, i] = ctx.scales[n] * ctx.x[i]

    def batch(ctx, dims):
        ctx.out[...] = ctx.scales[:, None] * ctx.x[None, :]

    return Kernel(name="test_pair", element=element, batch=batch)


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="unknown"):
            get_backend("cuda")

    def test_default_backend_swap(self):
        original = default_backend().name
        try:
            assert set_default_backend("serial").name == "serial"
            assert default_backend().name == "serial"
        finally:
            set_default_backend(original)

    def test_device_kinds(self):
        assert get_backend("serial").device_kind == "cpu"
        assert get_backend("threads").device_kind == "cpu"
        assert get_backend("vectorized").device_kind == "device"


class TestParallelFor:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_1d_saxpy(self, backend):
        x = np.arange(100.0)
        y = np.ones(100)
        parallel_for(100, _saxpy_kernel(), make_captures(a=2.0, x=x, y=y), backend=backend)
        assert np.allclose(y, 2.0 * x + 1.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_2d_index_space(self, backend):
        x = np.arange(7.0)
        scales = np.array([1.0, -1.0, 0.5])
        out = np.zeros((3, 7))
        parallel_for(
            (3, 7), _pair_kernel(), make_captures(x=x, scales=scales, out=out),
            backend=backend,
        )
        assert np.allclose(out, scales[:, None] * x[None, :])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_extent_is_noop(self, backend):
        y = np.ones(3)
        parallel_for(0, _saxpy_kernel(), make_captures(a=1.0, x=np.ones(0), y=y),
                     backend=backend)
        assert np.allclose(y, 1.0)

    def test_device_requires_batch_body(self):
        k = Kernel(name="test_nobatch", element=lambda ctx, i: None)
        with pytest.raises(BackendError, match="no batch body"):
            parallel_for(4, k, make_captures(), backend="vectorized")

    def test_cpu_backends_run_element_only_kernels(self):
        k = Kernel(
            name="test_element_only",
            element=lambda ctx, i: ctx.out.__setitem__(i, i),
        )
        out = np.zeros(4)
        parallel_for(4, k, make_captures(out=out), backend="serial")
        assert np.allclose(out, [0, 1, 2, 3])


class TestParallelReduce:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sum_reduction(self, backend):
        x = np.arange(50.0)
        total = parallel_reduce(50, _sum_sq_kernel(), make_captures(x=x), backend=backend)
        assert total == pytest.approx(float((x**2).sum()))

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_max_reduction_on_cpu(self, backend):
        x = np.array([3.0, -7.0, 11.0, 2.0])
        k = Kernel(name="test_max", element=lambda ctx, i: float(ctx.x[i]))
        assert parallel_reduce(4, k, make_captures(x=x), op="max", backend=backend) == 11.0

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_min_reduction_on_cpu(self, backend):
        x = np.array([3.0, -7.0, 11.0])
        k = Kernel(name="test_min", element=lambda ctx, i: float(ctx.x[i]))
        assert parallel_reduce(3, k, make_captures(x=x), op="min", backend=backend) == -7.0

    def test_device_rejects_custom_ops(self):
        """The JACC.jl limitation the paper documents, reproduced."""
        with pytest.raises(BackendError, match="only op='\\+'"):
            parallel_reduce(
                4, _sum_sq_kernel(), make_captures(x=np.ones(4)), op="max",
                backend="vectorized",
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_reduction(self, backend):
        total = parallel_reduce(0, _sum_sq_kernel(), make_captures(x=np.ones(0)),
                                backend=backend)
        assert total == 0.0

    def test_unknown_op_rejected(self):
        with pytest.raises(BackendError, match="unknown reduction"):
            parallel_reduce(2, _sum_sq_kernel(), make_captures(x=np.ones(2)),
                            op="xor", backend="serial")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_2d_reduction(self, backend):
        k = Kernel(
            name="test_red2d",
            element=lambda ctx, n, i: float(ctx.m[n, i]),
            batch=lambda ctx, dims: ctx.m,
        )
        m = np.arange(12.0).reshape(3, 4)
        assert parallel_reduce((3, 4), k, make_captures(m=m), backend=backend) == (
            pytest.approx(m.sum())
        )


class TestMemoryModel:
    def test_cpu_to_device_aliases(self):
        host = np.arange(4.0)
        dev = get_backend("serial").to_device(host)
        dev[0] = 99.0
        assert host[0] == 99.0  # CPU back ends share memory

    def test_device_to_device_copies(self):
        be = get_backend("vectorized")
        host = np.arange(4.0)
        dev = be.to_device(host)
        host[0] = 99.0
        assert dev[0] == 0.0  # discrete-device discipline

    def test_transfer_counters(self):
        be = get_backend("vectorized")
        be.reset_counters()
        dev = be.to_device(np.zeros(128, dtype=np.float64))
        _ = be.to_host(dev)
        assert be.bytes_h2d == 1024
        assert be.bytes_d2h == 1024

    def test_module_level_array_helpers(self):
        host = np.arange(3.0)
        dev = array(host, backend="vectorized")
        back = to_host(dev, backend="vectorized")
        assert np.array_equal(back, host)


class TestExecMode:
    """``kernel:*`` spans say whether a launch ran element or batch bodies."""

    @staticmethod
    def _traced_launches(backend):
        from repro.util.trace import Tracer, use_tracer

        tracer = Tracer(label=f"exec-mode/{backend}")
        with use_tracer(tracer):
            parallel_for((3, 7), _pair_kernel(),
                         make_captures(x=np.arange(7.0), scales=np.ones(3),
                                       out=np.zeros((3, 7))),
                         backend=backend)
            parallel_reduce(100, _sum_sq_kernel(),
                            make_captures(x=np.arange(100.0)), backend=backend)
        spans = [r for r in tracer.records
                 if r.get("attrs", {}).get("kind") == "kernel"]
        return tracer, spans

    def test_class_attribute(self):
        assert get_backend("vectorized").exec_mode == "batch"
        assert get_backend("serial").exec_mode == "element"
        assert get_backend("threads").exec_mode == "element"

    def test_threads_vs_vectorized_launch(self):
        from repro.util.perf import element_mode_warnings

        tracer, spans = self._traced_launches("threads")
        assert [s["attrs"]["exec_mode"] for s in spans] == ["element", "element"]
        assert tracer.counters["jacc.launches"] == 2
        assert tracer.counters["jacc.element_calls"] == 3 * 7 + 100
        warnings = element_mode_warnings(tracer.records)
        assert len(warnings) == 2
        assert all("'threads'" in w and "element mode" in w for w in warnings)
        assert "kernel:test_pair" in warnings[0]
        assert "(1 launches, 21.0 element calls)" in warnings[0]

        tracer, spans = self._traced_launches("vectorized")
        assert [s["attrs"]["exec_mode"] for s in spans] == ["batch", "batch"]
        assert tracer.counters["jacc.launches"] == 2
        assert "jacc.element_calls" not in tracer.counters
        assert element_mode_warnings(tracer.records) == []

    def test_serial_element_mode_is_not_a_warning(self):
        from repro.util.perf import element_mode_warnings

        tracer, spans = self._traced_launches("serial")
        assert {s["attrs"]["exec_mode"] for s in spans} == {"element"}
        assert tracer.counters["jacc.element_calls"] == 121
        assert element_mode_warnings(tracer.records) == []
