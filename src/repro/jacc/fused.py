"""Fused compiled-kernel back end ("fused").

The vectorized back end already plays the device role with array
primitives, but its MDNorm launch still runs a generic batch body:
per-call Python dispatch, a Python-pass comb sort, a materialized
``(rows, segments, 3)`` coordinate array, and fresh buffer allocations
per tile.  This back end replaces exactly that launch with a
**plan-specialized fused kernel** (see :mod:`repro.jacc.codegen`):

* on the first launch of a plan configuration the source is generated,
  compiled, memoized in-process, and published to the content-digest
  artifact store (:mod:`repro.jacc.artifact_cache`) for other
  processes;
* later launches of the same plan — any width, tiling, shard or worker
  schedule — run the cached callable with zero dispatch overhead and
  no per-launch allocation of the padded buffer;
* every other kernel (``bin_events``, the pre-pass counters, the
  conformance-matrix kernels) executes through the inherited
  vectorized path unchanged, so the fused back end inherits the device
  tier's semantics (``to_device`` copies, transfer counters, the
  ``op='+'``-only reduce limitation) wholesale.

Observability: each MDNorm launch emits ``fused:plan`` and
``fused:exec`` phase spans (plus ``fused:load`` on an artifact hit or
``fused:codegen`` on a miss) nested inside the backend's
``kernel:mdnorm`` span, and feeds two counters into the trace stream —
``jacc.artifact_hits`` and ``jacc.compile_seconds`` — which ``repro
perf`` rolls up alongside the JIT cache's ``compile_events`` (every
specialization is also appended there so benchmarks can separate
compile from execution time).

Determinism: bit-identical to ``vectorized`` for every
kernel, proven by the conformance matrix and
``tests/integration/test_fused_pipeline.py``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from repro.jacc.artifact_cache import ArtifactStore, artifact_digest
from repro.jacc.backend import register_backend
from repro.jacc.codegen import FusedPlanConfig, generate_fused_source
from repro.jacc.jit import GLOBAL_JIT, CompileEvent
from repro.jacc.kernels import Captures, Kernel, normalize_dims
from repro.jacc.vectorized import VectorizedBackend
from repro.util import trace as _trace


class FusedBackend(VectorizedBackend):
    """Device back end with plan-specialized fused MDNorm kernels."""

    name = "fused"
    device_kind = "device"

    def __init__(self) -> None:
        super().__init__()
        #: in-process memo: artifact digest -> compiled ``fused_mdnorm``
        self._kernels: Dict[str, Callable] = {}
        #: plan-identity memo: grid/op/impl tuple -> (digest, config),
        #: so warm launches skip the canonical-JSON + blake2b round trip
        self._plans: Dict[tuple, Tuple[str, FusedPlanConfig]] = {}

    def clear(self) -> None:
        """Drop the in-process memos (tests re-measure cold)."""
        self._kernels.clear()
        self._plans.clear()

    # -- execution -------------------------------------------------------
    def run_parallel_for(
        self, dims: int | Tuple[int, ...], kernel: Kernel, captures: Captures
    ) -> None:
        if kernel.name != "mdnorm":
            super().run_parallel_for(dims, kernel, captures)
            return
        dims = normalize_dims(dims)
        self.launches += 1
        if not all(d > 0 for d in dims):
            return
        tracer = _trace.active_tracer()
        with tracer.span("fused:plan", kind="phase", backend=self.name) as sp:
            grid = captures.grid
            scatter_impl = getattr(captures, "scatter_impl", "atomic")
            codec = getattr(captures, "codec", "none")
            plan_key = (
                grid.basis.tobytes(), grid.minimum, grid.maximum, grid.bins,
                dims[0], scatter_impl, codec,
            )
            cached = self._plans.get(plan_key)
            if cached is None:
                config = FusedPlanConfig.for_plan(
                    grid, n_ops=dims[0], scatter_impl=scatter_impl, codec=codec
                )
                digest = artifact_digest(config.canonical_json())
                self._plans[plan_key] = (digest, config)
            else:
                digest, config = cached
            sp.set(digest=digest)
        fn = self._kernels.get(digest)
        if fn is None:
            fn = self._materialize(digest, config, tracer)
            self._kernels[digest] = fn
        with tracer.span(
            "fused:exec", kind="phase", digest=digest,
            rows=int(dims[0]) * int(dims[1]),
        ):
            fn(captures, dims)

    # -- specialization --------------------------------------------------
    def _materialize(
        self, digest: str, config: FusedPlanConfig, tracer
    ) -> Callable:
        """Load the plan's kernel from the artifact store or build it."""
        store = ArtifactStore()
        source = store.load(digest)
        if source is not None:
            tracer.count("jacc.artifact_hits", 1)
            with tracer.span("fused:load", kind="phase", digest=digest):
                return self._compile(digest, source, "load")
        with tracer.span("fused:codegen", kind="phase", digest=digest):
            t0 = time.perf_counter()
            source = generate_fused_source(config)
            gen_seconds = time.perf_counter() - t0
            store.store(digest, source, config.canonical_json())
            return self._compile(digest, source, "codegen", gen_seconds)

    def _compile(
        self, digest: str, source: str, origin: str, extra_seconds: float = 0.0
    ) -> Callable:
        t0 = time.perf_counter()
        code = compile(source, f"<jacc:fused:{digest[:12]}>", "exec")
        namespace: Dict[str, object] = {}
        exec(code, namespace)  # noqa: S102 - trusted generated source
        fn = namespace["fused_mdnorm"]
        seconds = time.perf_counter() - t0 + extra_seconds
        GLOBAL_JIT.compile_events.append(
            CompileEvent(
                kernel="mdnorm", backend=self.name,
                variant=f"{origin}:{digest[:12]}", seconds=seconds,
            )
        )
        _trace.active_tracer().count("jacc.compile_seconds", seconds)
        return fn


FUSED = register_backend(FusedBackend())
