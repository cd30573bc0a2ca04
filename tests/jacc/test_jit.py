"""Unit tests for the JIT specialization cache."""

import numpy as np
import pytest

from repro.jacc import Kernel, parallel_for
from repro.jacc.jit import GLOBAL_JIT, JITCache
from repro.jacc.kernels import make_captures


class TestJITCache:
    def test_first_specialization_records_event(self):
        cache = JITCache()
        cache.loop_for("k1", "serial", 1)
        assert len(cache.compile_events) == 1
        ev = cache.compile_events[0]
        assert ev.kernel == "k1" and ev.backend == "serial"
        assert ev.seconds > 0.0

    def test_cache_hit_does_not_recompile(self):
        cache = JITCache()
        a = cache.loop_for("k1", "serial", 1)
        b = cache.loop_for("k1", "serial", 1)
        assert a is b
        assert len(cache.compile_events) == 1

    def test_variants_are_distinct(self):
        cache = JITCache()
        cache.loop_for("k1", "serial", 1)
        cache.loop_for("k1", "serial", 2)
        cache.loop_for_flat("k1", "serial", 1)
        cache.loop_reduce("k1", "serial", 1)
        assert len(cache.compile_events) == 4

    def test_backends_are_distinct(self):
        cache = JITCache()
        cache.loop_for("k1", "serial", 1)
        cache.loop_for("k1", "threads", 1)
        assert len(cache.compile_events) == 2

    def test_clear_forgets_everything(self):
        cache = JITCache()
        cache.loop_for("k1", "serial", 1)
        cache.clear()
        assert not cache.is_compiled("k1", "serial")
        assert cache.compile_events == []
        cache.loop_for("k1", "serial", 1)
        assert len(cache.compile_events) == 1

    def test_is_compiled(self):
        cache = JITCache()
        assert not cache.is_compiled("k1", "serial")
        cache.loop_for("k1", "serial", 1)
        assert cache.is_compiled("k1", "serial")
        assert not cache.is_compiled("k1", "vectorized")

    def test_total_compile_seconds(self):
        cache = JITCache()
        cache.loop_for("a", "serial", 1)
        cache.loop_for("b", "serial", 2)
        assert cache.total_compile_seconds() == pytest.approx(
            sum(e.seconds for e in cache.compile_events)
        )


class TestGeneratedLoops:
    def test_1d_loop_semantics(self):
        cache = JITCache()
        loop = cache.loop_for("k", "serial", 1)
        seen = []
        loop(lambda ctx, i: seen.append(i), None, (4,))
        assert seen == [0, 1, 2, 3]

    def test_2d_loop_semantics(self):
        cache = JITCache()
        loop = cache.loop_for("k", "serial", 2)
        seen = []
        loop(lambda ctx, n, i: seen.append((n, i)), None, (2, 3))
        assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_flat_loop_respects_bounds(self):
        cache = JITCache()
        loop = cache.loop_for_flat("k", "threads", 1)
        seen = []
        loop(lambda ctx, i: seen.append(i), None, (10,), 3, 6)
        assert seen == [3, 4, 5]

    def test_flat_2d_window_crosses_rows(self):
        """A flat window starts and stops mid-row: [3, 7) of a (5, 2)
        space covers the tail of row 1 through the head of row 3."""
        cache = JITCache()
        loop = cache.loop_for_flat("k", "threads", 2)
        seen = []
        loop(lambda ctx, n, i: seen.append((n, i)), None, (5, 2), 3, 7)
        assert seen == [(1, 1), (2, 0), (2, 1), (3, 0)]

    def test_reduce_loop_accumulates(self):
        cache = JITCache()
        loop = cache.loop_reduce("k", "serial", 1)
        out = loop(lambda ctx, i: float(i), None, (5,), lambda a, b: a + b, 0.0)
        assert out == 10.0


class TestGlobalCacheIntegration:
    def test_first_launch_compiles_then_reuses(self):
        GLOBAL_JIT.clear()
        k = Kernel(
            name="test_jit_integration",
            element=lambda ctx, i: None,
            batch=lambda ctx, dims: None,
        )
        before = len(GLOBAL_JIT.compile_events)
        parallel_for(4, k, make_captures(), backend="serial")
        after_first = len(GLOBAL_JIT.compile_events)
        parallel_for(4, k, make_captures(), backend="serial")
        after_second = len(GLOBAL_JIT.compile_events)
        assert after_first == before + 1
        assert after_second == after_first


class TestJITCacheKeyCollision:
    """Cache keys are ``(kernel name, backend, variant)``, but the cached
    object is a loop shell taking the kernel body per call: two kernels
    sharing a name with different bodies must each run their own."""

    def test_same_name_different_batch_bodies(self):
        def batch_a(ctx, dims):
            ctx.out[...] = ctx.x + 1.0

        def batch_b(ctx, dims):
            ctx.out[...] = ctx.x * 10.0

        x = np.arange(4.0)
        results = {}
        for body in (batch_a, batch_b):

            def element(ctx, i, _body=body):
                tmp = np.empty(1)
                _body(make_captures(x=ctx.x[i:i + 1], out=tmp), (1,))
                ctx.out[i] = tmp[0]

            k = Kernel(name="collide_probe", element=element, batch=body)
            out = np.zeros(4)
            parallel_for(4, k, make_captures(x=x, out=out),
                         backend="vectorized")
            results[body.__name__] = out.copy()
        # the second launch hit the cached trampoline under the SAME
        # (name, backend, "launch") key — it must still run batch_b
        assert np.array_equal(results["batch_a"], x + 1.0)
        assert np.array_equal(results["batch_b"], x * 10.0)

    def test_same_name_different_element_closures(self):
        cache = JITCache()
        loop1 = cache.loop_for("collide_probe", "serial", 1)
        loop2 = cache.loop_for("collide_probe", "serial", 1)
        assert loop1 is loop2  # one cache entry...
        out = np.zeros(3)

        def elem_add(ctx, i):
            ctx.out[i] = ctx.x[i] + 2.0

        def elem_mul(ctx, i):
            ctx.out[i] = ctx.x[i] * 5.0

        x = np.arange(3.0)
        loop1(elem_add, make_captures(x=x, out=out), (3,))
        assert np.array_equal(out, x + 2.0)
        loop2(elem_mul, make_captures(x=x, out=out), (3,))
        assert np.array_equal(out, x * 5.0)  # ...but per-call bodies
        assert len(cache.compile_events) == 1

    def test_reduce_loops_take_combine_per_call(self):
        cache = JITCache()
        loop = cache.loop_reduce("collide_probe", "serial", 1)

        def elem(ctx, i):
            return float(ctx.x[i])

        x = np.array([3.0, 1.0, 2.0])
        total = loop(elem, make_captures(x=x), (3,), lambda a, b: a + b, 0.0)
        peak = loop(elem, make_captures(x=x), (3,), max, float("-inf"))
        assert total == 6.0
        assert peak == 3.0
