"""Just-in-time kernel specialization.

Julia pays LLVM code generation on a kernel's first launch and runs
native code afterwards — the paper reports both columns ("JIT" and
"no JIT") because the difference is large.  Python cannot emit native
code without external compilers, but the *cost structure* is
reproducible honestly: on first launch per (kernel, back end, arity)
this cache **generates specialized loop source code and compiles it**
with :func:`compile`, so later launches execute a pre-built code object
with no per-launch dispatch.  First calls therefore pay a real,
measurable specialization cost that warm calls do not — much smaller
than LLVM's, which EXPERIMENTS.md accounts for.

The generated code is a plain loop nest calling the kernel's scalar
body (for the CPU back ends), or a direct trampoline to the batch body
(device back end).  ``JITCache.compile_events`` records every
specialization with its wall-clock cost, which the benchmark harness
reads to separate JIT from execution time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class CompileEvent:
    kernel: str
    backend: str
    variant: str
    seconds: float


_LOOP_TEMPLATES = {
    # ndim: source of the specialized loop nest
    1: (
        "def _loop(element, ctx, dims):\n"
        "    (n0,) = dims\n"
        "    for i0 in range(n0):\n"
        "        element(ctx, i0)\n"
    ),
    2: (
        "def _loop(element, ctx, dims):\n"
        "    n0, n1 = dims\n"
        "    for i0 in range(n0):\n"
        "        for i1 in range(n1):\n"
        "            element(ctx, i0, i1)\n"
    ),
}

# Flat-ranged nests iterate a [start, stop) window of the *flattened*
# row-major index space — the form the chunked CPU engines run, so a
# chunk boundary can fall anywhere, not only on an outer row.  The 2-D
# form recovers (i0, i1) by division exactly as CUDA recovers thread
# coordinates from a linear thread id.
_FLAT_LOOP_TEMPLATES = {
    1: (
        "def _loop(element, ctx, dims, start, stop):\n"
        "    for i0 in range(start, stop):\n"
        "        element(ctx, i0)\n"
    ),
    2: (
        "def _loop(element, ctx, dims, start, stop):\n"
        "    n1 = dims[1]\n"
        "    for t in range(start, stop):\n"
        "        i0 = t // n1\n"
        "        element(ctx, i0, t - i0 * n1)\n"
    ),
}

_REDUCE_TEMPLATES = {
    1: (
        "def _loop(element, ctx, dims, combine, acc):\n"
        "    (n0,) = dims\n"
        "    for i0 in range(n0):\n"
        "        acc = combine(acc, element(ctx, i0))\n"
        "    return acc\n"
    ),
    2: (
        "def _loop(element, ctx, dims, combine, acc):\n"
        "    n0, n1 = dims\n"
        "    for i0 in range(n0):\n"
        "        for i1 in range(n1):\n"
        "            acc = combine(acc, element(ctx, i0, i1))\n"
        "    return acc\n"
    ),
}

_FLAT_REDUCE_TEMPLATES = {
    1: (
        "def _loop(element, ctx, dims, combine, acc, start, stop):\n"
        "    for i0 in range(start, stop):\n"
        "        acc = combine(acc, element(ctx, i0))\n"
        "    return acc\n"
    ),
    2: (
        "def _loop(element, ctx, dims, combine, acc, start, stop):\n"
        "    n1 = dims[1]\n"
        "    for t in range(start, stop):\n"
        "        i0 = t // n1\n"
        "        acc = combine(acc, element(ctx, i0, t - i0 * n1))\n"
        "    return acc\n"
    ),
}


class JITCache:
    """Per-process cache of specialized loop code objects."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, str, str], Callable] = {}
        self.compile_events: List[CompileEvent] = []

    def _specialize(
        self, key: Tuple[str, str, str], source: str, filename: str
    ) -> Callable:
        fn = self._cache.get(key)
        if fn is not None:
            return fn
        t0 = time.perf_counter()
        code = compile(source, filename, "exec")
        namespace: Dict[str, Callable] = {}
        exec(code, namespace)  # noqa: S102 - trusted generated source
        fn = namespace["_loop"]
        dt = time.perf_counter() - t0
        self._cache[key] = fn
        self.compile_events.append(
            CompileEvent(kernel=key[0], backend=key[1], variant=key[2], seconds=dt)
        )
        return fn

    def loop_for(self, kernel_name: str, backend: str, ndim: int) -> Callable:
        """Specialized parallel_for loop nest for a kernel arity."""
        variant = f"for{ndim}d"
        key = (kernel_name, backend, variant)
        src = _LOOP_TEMPLATES[ndim]
        return self._specialize(key, src, f"<jacc:{kernel_name}:{variant}>")

    def loop_reduce(self, kernel_name: str, backend: str, ndim: int) -> Callable:
        """Specialized parallel_reduce loop nest for a kernel arity."""
        variant = f"red{ndim}d"
        key = (kernel_name, backend, variant)
        src = _REDUCE_TEMPLATES[ndim]
        return self._specialize(key, src, f"<jacc:{kernel_name}:{variant}>")

    def loop_for_flat(self, kernel_name: str, backend: str, ndim: int) -> Callable:
        """Flat-ranged parallel_for nest over the linearized index space.

        Signature ``_loop(element, ctx, dims, start, stop)`` where
        ``[start, stop)`` indexes the row-major flattening of ``dims``.
        """
        variant = f"for{ndim}df"
        key = (kernel_name, backend, variant)
        src = _FLAT_LOOP_TEMPLATES[ndim]
        return self._specialize(key, src, f"<jacc:{kernel_name}:{variant}>")

    def loop_reduce_flat(self, kernel_name: str, backend: str, ndim: int) -> Callable:
        """Flat-ranged parallel_reduce nest over the linearized space."""
        variant = f"red{ndim}df"
        key = (kernel_name, backend, variant)
        src = _FLAT_REDUCE_TEMPLATES[ndim]
        return self._specialize(key, src, f"<jacc:{kernel_name}:{variant}>")

    def trampoline(self, kernel_name: str, backend: str, body: Callable) -> Callable:
        """Device-side specialization: a compiled launch trampoline."""
        key = (kernel_name, backend, "launch")
        fn = self._cache.get(key)
        if fn is not None:
            return fn
        src = "def _loop(batch, ctx, dims):\n    return batch(ctx, dims)\n"
        return self._specialize(key, src, f"<jacc:{kernel_name}:launch>")

    def is_compiled(self, kernel_name: str, backend: str) -> bool:
        return any(k[0] == kernel_name and k[1] == backend for k in self._cache)

    def clear(self) -> None:
        """Drop all specializations (benchmarks use this to re-measure JIT)."""
        self._cache.clear()
        self.compile_events.clear()

    def total_compile_seconds(self) -> float:
        return sum(e.seconds for e in self.compile_events)


#: the process-wide cache all back ends share
GLOBAL_JIT = JITCache()
