"""Unit tests for the MDNorm kernel pair and its pre-pass."""

import numpy as np
import pytest

from repro.core import geom_cache as gc
from repro.core.geom_cache import GeomCache, GeomEntry
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.mdnorm import DEFAULT_TILE_ROWS, max_intersections, mdnorm
from repro.nexus.corrections import FluxSpectrum
from repro.util import trace
from repro.util.perf import mdnorm_padding
from repro.util.validation import ValidationError

BACKENDS = ("serial", "threads", "vectorized")


@pytest.fixture()
def grid():
    return HKLGrid(
        basis=np.eye(3), minimum=(-2.0, -2.0, -0.5), maximum=(2.0, 2.0, 0.5),
        bins=(16, 16, 1),
    )


@pytest.fixture()
def flux():
    k = np.linspace(1.0, 12.0, 64)
    return FluxSpectrum(momentum=k, density=np.ones(64))


def _detectors(n=50, seed=0):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d[:, 2] = np.abs(d[:, 2]) * 0.5  # keep away from pure forward scattering
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d


IDENT = np.eye(3)[None, :, :]
BAND = (2.0, 9.0)


class TestMaxIntersections:
    def test_cpu_and_device_agree(self, grid):
        dets = _detectors()
        for backend in BACKENDS:
            out = max_intersections(grid, IDENT, dets, BAND, backend=backend)
            assert out == max_intersections(grid, IDENT, dets, BAND, backend="serial")

    def test_bound_is_sufficient(self, grid, flux):
        """mdnorm with the pre-pass width must not overflow."""
        dets = _detectors(80)
        width = max_intersections(grid, IDENT, dets, BAND, backend="vectorized")
        h = Hist3(grid)
        mdnorm(h, IDENT, dets, np.ones(80), flux, BAND, backend="vectorized",
               width=width)

    def test_within_paper_bound(self, grid):
        dets = _detectors()
        out = max_intersections(grid, IDENT, dets, BAND)
        assert out <= grid.max_plane_crossings


class TestCorrectness:
    def test_backends_agree_exactly(self, grid, flux):
        dets = _detectors(60)
        solid = np.random.default_rng(1).random(60)
        ref = None
        for backend in BACKENDS:
            h = Hist3(grid)
            mdnorm(h, IDENT, dets, solid, flux, BAND, backend=backend)
            if ref is None:
                ref = h.signal.copy()
            else:
                assert np.allclose(h.signal, ref, rtol=1e-10, atol=1e-15), backend

    def test_sort_impls_agree(self, grid, flux):
        dets = _detectors(60)
        solid = np.ones(60)
        a = Hist3(grid)
        mdnorm(a, IDENT, dets, solid, flux, BAND, backend="vectorized",
               sort_impl="comb")
        b = Hist3(grid)
        mdnorm(b, IDENT, dets, solid, flux, BAND, backend="vectorized",
               sort_impl="library")
        assert np.allclose(a.signal, b.signal)

    def test_scatter_impls_agree(self, grid, flux):
        dets = _detectors(60)
        a = Hist3(grid)
        mdnorm(a, IDENT, dets, np.ones(60), flux, BAND, backend="vectorized",
               scatter_impl="atomic")
        b = Hist3(grid)
        mdnorm(b, IDENT, dets, np.ones(60), flux, BAND, backend="vectorized",
               scatter_impl="buffered")
        assert np.allclose(a.signal, b.signal)

    def test_tile_rows_invariance(self, grid, flux):
        dets = _detectors(60)
        a = Hist3(grid)
        mdnorm(a, IDENT, dets, np.ones(60), flux, BAND, backend="vectorized",
               tile_rows=7)
        b = Hist3(grid)
        mdnorm(b, IDENT, dets, np.ones(60), flux, BAND, backend="vectorized")
        assert np.allclose(a.signal, b.signal)

    def test_total_equals_flux_times_solid_angle(self, grid, flux):
        """Conservation: the summed normalization equals
        sum_det solid_angle * integral phi over the in-box k-window
        (uniform flux makes this exactly computable)."""
        from repro.core.intersections import k_window, trajectory_directions

        dets = _detectors(40, seed=2)
        solid = np.random.default_rng(3).random(40)
        h = Hist3(grid)
        mdnorm(h, IDENT, dets, solid, flux, BAND, backend="vectorized")
        directions = trajectory_directions(IDENT, dets)
        lo, hi = k_window(directions, grid, *BAND)
        lengths = np.clip(hi - lo, 0.0, None)[0]
        density = flux.total / (flux.k_max - flux.k_min)
        expected = float(np.sum(solid * lengths * density))
        assert h.total() == pytest.approx(expected, rel=1e-9)

    def test_charge_scales_linearly(self, grid, flux):
        dets = _detectors(30)
        a = Hist3(grid)
        mdnorm(a, IDENT, dets, np.ones(30), flux, BAND, charge=1.0,
               backend="vectorized")
        b = Hist3(grid)
        mdnorm(b, IDENT, dets, np.ones(30), flux, BAND, charge=2.5,
               backend="vectorized")
        assert np.allclose(b.signal, 2.5 * a.signal)

    def test_zero_solid_angles_give_zero(self, grid, flux):
        dets = _detectors(20)
        h = Hist3(grid)
        mdnorm(h, IDENT, dets, np.zeros(20), flux, BAND, backend="vectorized")
        assert h.total() == 0.0

    def test_symmetry_ops_accumulate(self, grid, flux):
        """+-identity: the inverted trajectories add their own weight."""
        dets = _detectors(30)
        one = Hist3(grid)
        mdnorm(one, IDENT, dets, np.ones(30), flux, BAND, backend="vectorized")
        two = Hist3(grid)
        ops = np.stack([np.eye(3), -np.eye(3)])
        mdnorm(two, ops, dets, np.ones(30), flux, BAND, backend="vectorized")
        assert two.total() == pytest.approx(2 * one.total(), rel=1e-9)

    def test_band_outside_flux_table_contributes_clamped(self, grid):
        """A zero-flux band produces zero normalization."""
        k = np.linspace(5.0, 6.0, 16)
        flux = FluxSpectrum(momentum=k, density=np.ones(16))
        dets = _detectors(10)
        h = Hist3(grid)
        # trajectories only live at k < 2 in the box; the flux table is
        # zero-measure there (clamped cumulative)
        mdnorm(h, IDENT, dets, np.ones(10), flux, (0.1, 0.5),
               backend="vectorized")
        assert h.total() == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_transform_shape(self, grid, flux):
        with pytest.raises(ValidationError, match="transforms"):
            mdnorm(Hist3(grid), np.eye(3), _detectors(5), np.ones(5), flux, BAND)

    def test_solid_angle_length(self, grid, flux):
        with pytest.raises(ValidationError, match="solid_angles"):
            mdnorm(Hist3(grid), IDENT, _detectors(5), np.ones(4), flux, BAND)

    def test_bad_sort_impl(self, grid, flux):
        with pytest.raises(ValidationError, match="sort_impl"):
            mdnorm(Hist3(grid), IDENT, _detectors(5), np.ones(5), flux, BAND,
                   sort_impl="quantum")

    def test_det_direction_shape(self, grid, flux):
        with pytest.raises(ValidationError, match="det_directions"):
            mdnorm(Hist3(grid), IDENT, np.ones(5), np.ones(5), flux, BAND)


#: identity + two proper rotations (z 90deg, x 180deg)
OPS3 = np.stack([
    np.eye(3),
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
])


class TestBatchPath:
    """The one vectorized MDNorm path: scheduling knobs, the row sort
    and the deposit plan never change a bit of the histogram."""

    @pytest.fixture()
    def case(self):
        # a coarse grid under many trajectories: every bin collects
        # deposits from many rows of one tile, so a warm launch that
        # summed different tiles than the cold one would show
        grid = HKLGrid(basis=np.eye(3), minimum=(-2.0, -2.0, -0.5),
                       maximum=(2.0, 2.0, 0.5), bins=(5, 5, 1))
        rng = np.random.default_rng(11)
        flux = FluxSpectrum(momentum=np.linspace(1.0, 12.0, 64),
                            density=1.0 + rng.random(64))
        dets = _detectors(200, seed=4)
        solid = rng.random(200)
        solid[::7] = 0.0  # zero-weight detectors drop out
        return grid, flux, dets, solid

    def _run(self, case, **kwargs):
        grid, flux, dets, solid = case
        kwargs.setdefault("cache", gc.DISABLED)
        h = Hist3(grid, track_errors=True)
        mdnorm(h, OPS3, dets, solid, flux, BAND, backend="vectorized",
               charge=2.5, **kwargs)
        return h

    @pytest.mark.parametrize("scatter_impl", ("atomic", "buffered"))
    @pytest.mark.parametrize("tile_rows", (1, 7, DEFAULT_TILE_ROWS))
    def test_knobs_and_plan_are_bit_identical(self, case, scatter_impl, tile_rows):
        grid, flux, dets, solid = case
        prepass = max_intersections(grid, OPS3, dets, BAND, backend="vectorized")
        ref = self._run(case, tile_rows=tile_rows, scatter_impl=scatter_impl,
                        sort_impl="comb")
        assert ref.signal.sum() > 0
        for sort_impl in ("comb", "library"):
            for width in (prepass, prepass + 5, grid.max_plane_crossings):
                got = self._run(case, tile_rows=tile_rows, width=width,
                                scatter_impl=scatter_impl, sort_impl=sort_impl)
                assert np.array_equal(got.signal, ref.signal), (sort_impl, width)
            cache = GeomCache()
            for label in ("cold", "warm"):
                got = self._run(case, tile_rows=tile_rows, cache=cache,
                                scatter_impl=scatter_impl, sort_impl=sort_impl)
                assert np.array_equal(got.signal, ref.signal), (sort_impl, label)
            (entry,) = _geometry(cache)
            assert entry.deposit is not None

    def test_atomic_scatter_is_tile_invariant(self, case):
        hists = [self._run(case, tile_rows=t) for t in (1, 7, 4096)]
        for h in hists[1:]:
            assert np.array_equal(h.signal, hists[0].signal)

    def test_warm_plan_is_compact(self, case):
        cache = GeomCache()
        self._run(case, cache=cache)
        (entry,) = _geometry(cache)
        plan = entry.deposit
        assert plan.n_segments == plan.seg_flux.size == plan.flat_idx.size
        assert np.all(np.diff(plan.row) >= 0)  # row-major deposit order
        assert plan.row.max() < plan.n_rows == int(plan.live.sum())
        assert np.all((plan.flat_idx >= 0) & (plan.flat_idx < case[0].n_bins_total))
        assert not plan.row.flags.writeable and not plan.seg_flux.flags.writeable

    def test_no_plan_at_explicit_width(self, case):
        cache = GeomCache()
        self._run(case, cache=cache, width=case[0].max_plane_crossings)
        assert all(e.deposit is None for e in _geometry(cache))

    def test_no_plan_at_zero_charge(self, case):
        grid, flux, dets, solid = case
        cache = GeomCache()
        for _ in range(2):
            h = Hist3(grid)
            mdnorm(h, OPS3, dets, solid, flux, BAND, backend="vectorized",
                   charge=0.0, cache=cache)
            assert h.total() == 0.0
        assert all(e.deposit is None for e in _geometry(cache))

    def test_op_span_records_live_segments(self, case):
        cache = GeomCache()
        tracer = trace.Tracer(label="mdnorm-segments", profile=True)
        with trace.use_tracer(tracer):
            for _ in range(2):
                self._run(case, cache=cache)
        spans = [r["attrs"] for r in tracer.records
                 if r.get("type") == "span" and r["name"] == "mdnorm"]
        cold, warm = spans
        (entry,) = _geometry(cache)
        assert not cold["warm_plan"] and warm["warm_plan"]
        assert cold["live_segments"] == warm["live_segments"] == entry.deposit.n_segments
        assert 0 < cold["live_segments"] <= cold["segment_slots"]
        assert warm["segment_slots"] == 0
        assert warm["perf"]["segments"] == entry.deposit.n_segments
        assert warm["perf"]["bytes_read"] == entry.deposit.nbytes
        pad = mdnorm_padding(tracer.records)
        assert pad["live_segments"] == cold["live_segments"]
        assert pad["segment_slots"] == cold["segment_slots"]
        assert 0.0 < pad["pad_efficiency"] <= 1.0


def _geometry(cache):
    entries = [cache.peek(k) for k in cache.keys()]
    return [e for e in entries if isinstance(e, GeomEntry)]
