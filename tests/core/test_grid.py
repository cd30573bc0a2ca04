"""Unit tests for the HKL binning grid."""

import numpy as np
import pytest

from repro.core.grid import HKLGrid
from repro.crystal.goniometer import goniometer_omega_chi_phi
from repro.crystal.lattice import UnitCell
from repro.crystal.symmetry import point_group
from repro.crystal.ub import TWO_PI, UBMatrix
from repro.util.validation import ValidationError


@pytest.fixture()
def simple_grid():
    return HKLGrid(
        basis=np.eye(3),
        minimum=(-2.0, -2.0, -1.0),
        maximum=(2.0, 2.0, 1.0),
        bins=(4, 4, 2),
    )


class TestGeometry:
    def test_widths(self, simple_grid):
        assert np.allclose(simple_grid.widths, [1.0, 1.0, 1.0])

    def test_edges(self, simple_grid):
        e0, e1, e2 = simple_grid.edges
        assert np.allclose(e0, [-2, -1, 0, 1, 2])
        assert np.allclose(e2, [-1, 0, 1])

    def test_n_bins_total(self, simple_grid):
        assert simple_grid.n_bins_total == 32

    def test_max_plane_crossings_bound(self, simple_grid):
        # at most (bins_i + 1) edges per dim + 2 endpoints
        assert simple_grid.max_plane_crossings == 4 + 4 + 2 + 3 + 2

    def test_validation(self):
        with pytest.raises(ValidationError, match="empty"):
            HKLGrid(basis=np.eye(3), minimum=(0, 0, 0), maximum=(0, 1, 1), bins=(1, 1, 1))
        with pytest.raises(ValidationError, match=">= 1"):
            HKLGrid(basis=np.eye(3), minimum=(0, 0, 0), maximum=(1, 1, 1), bins=(0, 1, 1))
        with pytest.raises(ValidationError, match="linearly dependent"):
            HKLGrid(
                basis=np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]).T,
                minimum=(0, 0, 0), maximum=(1, 1, 1), bins=(1, 1, 1),
            )


class TestBinIndex:
    def test_inside_points(self, simple_grid):
        flat, inside = simple_grid.bin_index(np.array([[-1.5, -1.5, -0.5]]))
        assert inside[0]
        assert flat[0] == 0  # corner bin

    def test_flat_index_layout(self, simple_grid):
        # c-order: i0 * (4*2) + i1 * 2 + i2
        flat, inside = simple_grid.bin_index(np.array([[0.5, -1.5, 0.5]]))
        assert inside[0]
        assert flat[0] == 2 * 8 + 0 * 2 + 1

    def test_outside_points_masked(self, simple_grid):
        coords = np.array([[5.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, 2.0]])
        _, inside = simple_grid.bin_index(coords)
        assert not inside.any()

    def test_upper_boundary_excluded(self, simple_grid):
        """Matches Hist3.push floor semantics: c == max is outside."""
        _, inside = simple_grid.bin_index(np.array([[2.0, 0.0, 0.0]]))
        assert not inside[0]

    def test_lower_boundary_included(self, simple_grid):
        _, inside = simple_grid.bin_index(np.array([[-2.0, -2.0, -1.0]]))
        assert inside[0]

    def test_nd_batch_shape(self, simple_grid):
        coords = np.zeros((3, 5, 3))
        flat, inside = simple_grid.bin_index(coords)
        assert flat.shape == (3, 5)
        assert inside.shape == (3, 5)


def _bin_index_3d(grid, coords):
    """The ``(n, 3)``-temporary form of ``bin_index`` (the reference the
    per-axis implementation must match bit for bit)."""
    c = np.asarray(coords, dtype=np.float64)
    idx = np.floor((c - np.array(grid.minimum)) / grid.widths).astype(np.int64)
    nb = np.array(grid.bins)
    inside = np.all((idx >= 0) & (idx < nb), axis=-1)
    idx = np.clip(idx, 0, nb - 1)
    flat = idx[..., 0] * (nb[1] * nb[2]) + idx[..., 1] * nb[2] + idx[..., 2]
    return flat, inside


class TestBinIndexReference:
    @pytest.mark.parametrize("grid", (
        HKLGrid.benzil_grid(),
        HKLGrid.bixbyite_grid(bins=(61, 47, 3)),
        HKLGrid(basis=np.eye(3), minimum=(-0.3, 0.1, -2.0),
                maximum=(0.7, 0.35, 5.0), bins=(7, 1, 13)),
    ), ids=("benzil", "bixbyite", "odd"))
    def test_matches_three_column_form(self, grid):
        rng = np.random.default_rng(5)
        mn, mx = np.array(grid.minimum), np.array(grid.maximum)
        span = mx - mn
        pts = [rng.uniform(mn - 0.1 * span, mx + 0.1 * span, size=(4000, 3))]
        # points exactly on the box faces, on every edge plane, and one
        # ulp either side of minimum / maximum
        for axis in range(3):
            on = rng.uniform(mn, mx, size=(3 * len(grid.edges[axis]) + 6, 3))
            edges = grid.edges[axis]
            on[:len(edges), axis] = edges
            n = len(edges)
            on[n:2 * n, axis] = np.nextafter(edges, -np.inf)
            on[2 * n:3 * n, axis] = np.nextafter(edges, np.inf)
            on[-6:, axis] = [mn[axis], mx[axis],
                             np.nextafter(mn[axis], -np.inf),
                             np.nextafter(mn[axis], np.inf),
                             np.nextafter(mx[axis], -np.inf),
                             np.nextafter(mx[axis], np.inf)]
            pts.append(on)
        coords = np.concatenate(pts)
        for shaped in (coords, coords[:4000].reshape(40, 100, 3), coords[7]):
            flat, inside = grid.bin_index(shaped)
            ref_flat, ref_inside = _bin_index_3d(grid, shaped)
            assert flat.shape == ref_flat.shape and flat.dtype == ref_flat.dtype
            assert np.array_equal(flat, ref_flat)
            assert np.array_equal(inside, ref_inside)
        _, inside = grid.bin_index(np.array([mn, mx]))
        assert inside.tolist() == [True, False]


class TestProjection:
    def test_benzil_basis_maps_110_to_first_axis(self):
        grid = HKLGrid.benzil_grid(bins=(10, 10, 1))
        c = grid.projection @ np.array([1.0, 1.0, 0.0])
        assert np.allclose(c, [1.0, 0.0, 0.0])
        c2 = grid.projection @ np.array([1.0, -1.0, 0.0])
        assert np.allclose(c2, [0.0, 1.0, 0.0])

    def test_bixbyite_grid_is_identity_projection(self):
        grid = HKLGrid.bixbyite_grid(bins=(10, 10, 1))
        assert np.allclose(grid.projection, np.eye(3))

    def test_paper_bin_counts_default(self):
        assert HKLGrid.benzil_grid().bins == (603, 603, 1)
        assert HKLGrid.bixbyite_grid().bins == (601, 601, 1)


class TestTransforms:
    cell = UnitCell(4.0, 4.0, 4.0)

    def test_identity_case_maps_q_to_hkl(self):
        ub = UBMatrix(cell=self.cell)
        grid = HKLGrid.bixbyite_grid(bins=(10, 10, 1))
        t = grid.transforms_for(ub)
        assert t.shape == (1, 3, 3)
        q = ub.hkl_to_q_sample([1.0, 2.0, -1.0])
        assert np.allclose(t[0] @ q, [1.0, 2.0, -1.0])

    def test_symmetry_op_count(self):
        ub = UBMatrix(cell=self.cell)
        grid = HKLGrid.bixbyite_grid(bins=(4, 4, 1))
        t = grid.transforms_for(ub, point_group("m-3"))
        assert t.shape == (24, 3, 3)

    def test_goniometer_composition(self):
        ub = UBMatrix(cell=self.cell)
        grid = HKLGrid.bixbyite_grid(bins=(4, 4, 1))
        r = goniometer_omega_chi_phi(37.0)
        t = grid.transforms_for(ub, goniometer=r)
        q_sample = ub.hkl_to_q_sample([2.0, 0.0, 1.0])
        q_lab = r @ q_sample
        assert np.allclose(t[0] @ q_lab, [2.0, 0.0, 1.0])

    def test_projection_composition(self):
        """Benzil's [H,H,0] basis: hkl (1,1,0) lands at grid coord (1,0,0)."""
        ub = UBMatrix(cell=self.cell)
        grid = HKLGrid.benzil_grid(bins=(10, 10, 1))
        t = grid.transforms_for(ub)
        q = ub.hkl_to_q_sample([1.0, 1.0, 0.0])
        assert np.allclose(t[0] @ q, [1.0, 0.0, 0.0])

    def test_accepts_raw_matrix(self):
        grid = HKLGrid.bixbyite_grid(bins=(4, 4, 1))
        raw = 0.25 * np.eye(3)
        t = grid.transforms_for(raw)
        assert np.allclose(t[0], np.linalg.inv(TWO_PI * raw))
