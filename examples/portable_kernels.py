"""Writing your own performance-portable kernel on the JACC layer.

The paper's pitch is that application scientists write one kernel and
run it on every back end.  This example implements a new analysis
kernel — the radial (powder) average of a reduced cross-section — as a
:class:`repro.jacc.Kernel` with both a scalar and a data-parallel body,
and runs it unchanged on serial, threads and the device back end,
checking the results agree and timing each engine.

Run:  python examples/portable_kernels.py
"""

import time

import numpy as np

from repro.bench.workloads import benzil_corelli, build_workload
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.jacc import BackendError, Kernel, available_backends, parallel_for
from repro.jacc.kernels import make_captures
from repro.proxy import MiniVatesConfig, MiniVatesWorkflow


def radial_average_kernel() -> Kernel:
    """Histogram every (H, K) bin's intensity by its radius |c|.

    Both bodies accumulate only through ``Hist3`` captures (the paper's
    ``atomic_push!``): the threads and multiprocess back ends replay
    each chunk's pushes in serial order, which is what keeps them
    bit-identical to serial.  A plain ``sums[b] += value`` into a
    shared array would race between chunks.
    """

    def element(ctx, i):
        # one lane per flattened 2-D bin
        value = ctx.values[i]
        if value != value:  # NaN: bin had no normalization
            return
        ctx.sums.push(ctx.radii[i], 0.0, 0.0, value)
        ctx.counts.push(ctx.radii[i], 0.0, 0.0, 1.0)

    def batch(ctx, dims):
        good = ~np.isnan(ctx.values)
        coords = np.zeros((int(good.sum()), 3))
        coords[:, 0] = ctx.radii[good]
        ctx.sums.push_many(coords, ctx.values[good])
        ctx.counts.push_many(coords, 1.0)

    return Kernel(name="radial_average", element=element, batch=batch)


def main() -> None:
    # produce a cross-section to analyze
    data = build_workload(benzil_corelli(scale=0.001, n_files=4))
    result = MiniVatesWorkflow(
        MiniVatesConfig(
            md_paths=data.md_paths,
            flux_path=data.flux_path,
            vanadium_path=data.vanadium_path,
            instrument=data.instrument,
            grid=data.grid,
            point_group=data.point_group,
        )
    ).run()
    cross = result.cross_section

    # lay out the kernel inputs: one lane per (H, K) bin
    grid = cross.grid
    e0, e1, _ = grid.edges
    c0 = 0.5 * (e0[1:] + e0[:-1])
    c1 = 0.5 * (e1[1:] + e1[:-1])
    radii = np.sqrt(c0[:, None] ** 2 + c1[None, :] ** 2).ravel()
    values = cross.slice2d(axis=2, index=0).ravel()
    n_radial = 60
    # one radial axis; the other two are a single bin the pushes sit in
    radial = HKLGrid(basis=np.eye(3), minimum=(0.0, -1.0, -1.0),
                     maximum=(float(radii.max()) * (1 + 1e-9), 1.0, 1.0),
                     bins=(n_radial, 1, 1))
    dr = float(radial.widths[0])

    kernel = radial_average_kernel()
    profiles = {}
    for backend in available_backends():
        sums, counts = Hist3(radial), Hist3(radial)
        captures = make_captures(values=values, radii=radii,
                                 sums=sums, counts=counts)
        t0 = time.perf_counter()
        try:
            parallel_for(values.shape[0], kernel, captures, backend=backend)
        except BackendError as exc:
            # e.g. a process pool cannot receive this closure kernel
            profiles[backend] = (None, str(exc))
            continue
        dt = time.perf_counter() - t0
        with np.errstate(invalid="ignore"):
            profiles[backend] = (np.divide(sums.signal.ravel(),
                                           counts.signal.ravel(),
                                           out=np.full(n_radial, np.nan),
                                           where=counts.signal.ravel() > 0), dt)

    reference, _ = profiles["serial"]
    print(f"{'back end':<12} {'WCT':>10}   result")
    for backend, (profile, dt) in profiles.items():
        if profile is None:
            print(f"{backend:<12} {'-':>10}   skipped: {dt}")
            continue
        match = np.allclose(np.nan_to_num(profile), np.nan_to_num(reference))
        print(f"{backend:<12} {dt * 1e3:>8.2f}ms   "
              f"{'identical to serial' if match else 'MISMATCH'}")
        assert match

    peak = np.nanargmax(reference)
    print(f"\nradial profile peak at |c| = {(peak + 0.5) * dr:.2f} r.l.u. — "
          "the strongest powder ring of the benzil pattern")


if __name__ == "__main__":
    main()
