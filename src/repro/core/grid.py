"""The output histogram grid in projected (H, K, L) coordinates.

Mantid's MDNorm bins along three user-chosen reciprocal-space basis
vectors.  The paper's use cases (Table II):

* Benzil / CORELLI: basis ``[H,H,0], [H,-H,0], [0,0,L]`` on a
  603 x 603 x 1 grid;
* Bixbyite / TOPAZ: basis ``[H,0,0], [0,K,0], [0,0,L]`` on a
  601 x 601 x 1 grid.

A grid is defined by its basis matrix ``W`` (columns = basis vectors in
HKL space), per-dimension ranges and bin counts.  Grid coordinates of a
reciprocal point are ``c = W^-1 hkl``; combined with the UB and
goniometer transforms this gives one 3x3 matrix per (run, symmetry op)
that kernels apply to every event / trajectory — the ``transforms``
array of the paper's Listings 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.crystal.symmetry import PointGroup
from repro.crystal.ub import UBMatrix, TWO_PI
from repro.util.validation import ValidationError, as_matrix3, require


@dataclass(frozen=True)
class HKLGrid:
    """A regular 3-D binning grid over projected HKL coordinates."""

    #: basis vectors in HKL space, as columns of a 3x3 matrix
    basis: np.ndarray
    #: inclusive lower corner in grid coordinates
    minimum: Tuple[float, float, float]
    #: inclusive upper corner in grid coordinates
    maximum: Tuple[float, float, float]
    #: bins per dimension (the paper's hBins/kBins/lBins)
    bins: Tuple[int, int, int]
    #: axis labels for reports
    names: Tuple[str, str, str] = ("[H,0,0]", "[0,K,0]", "[0,0,L]")

    def __post_init__(self) -> None:
        basis = as_matrix3(self.basis, "basis")
        if abs(np.linalg.det(basis)) < 1e-12:
            raise ValidationError("grid basis vectors are linearly dependent")
        object.__setattr__(self, "basis", basis)
        mn = tuple(float(x) for x in self.minimum)
        mx = tuple(float(x) for x in self.maximum)
        nb = tuple(int(x) for x in self.bins)
        require(len(mn) == 3 and len(mx) == 3 and len(nb) == 3, "grid is 3-D")
        for lo, hi, n in zip(mn, mx, nb):
            require(hi > lo, f"grid range [{lo}, {hi}] is empty")
            require(n >= 1, f"bin count {n} must be >= 1")
        object.__setattr__(self, "minimum", mn)
        object.__setattr__(self, "maximum", mx)
        object.__setattr__(self, "bins", nb)

    # -- geometry --------------------------------------------------------
    @cached_property
    def widths(self) -> np.ndarray:
        """Bin width per dimension."""
        return (np.array(self.maximum) - np.array(self.minimum)) / np.array(self.bins)

    @cached_property
    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bin edge positions per dimension (len = bins + 1)."""
        return tuple(
            np.linspace(self.minimum[i], self.maximum[i], self.bins[i] + 1)
            for i in range(3)
        )

    @cached_property
    def n_bins_total(self) -> int:
        b = self.bins
        return b[0] * b[1] * b[2]

    @cached_property
    def max_plane_crossings(self) -> int:
        """Upper bound on trajectory/plane intersections: the paper's
        ``hBins + kBins + lBins + 2`` (every interior+boundary plane of
        each dimension, plus the two segment endpoints)."""
        return self.bins[0] + self.bins[1] + self.bins[2] + 3 + 2

    @cached_property
    def projection(self) -> np.ndarray:
        """``W^-1``: maps HKL to grid coordinates."""
        return np.linalg.inv(self.basis)

    # -- transforms --------------------------------------------------------
    def transforms_for(
        self,
        ub: UBMatrix | np.ndarray,
        point_group: Optional[PointGroup] = None,
        goniometer: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-symmetry-op matrices mapping Q (sample or lab) to grid coords.

        Returns ``(n_ops, 3, 3)`` with
        ``T_op = W^-1 . S . (2 pi UB)^-1 [. R^-1]``; pass ``goniometer``
        to consume lab-frame Q, omit it for Q_sample (the MDEvent table).
        """
        ub_matrix = ub.matrix if isinstance(ub, UBMatrix) else as_matrix3(ub, "ub")
        inv_ub = np.linalg.inv(TWO_PI * ub_matrix)
        if goniometer is not None:
            inv_ub = inv_ub @ as_matrix3(goniometer, "goniometer").T
        if point_group is None:
            ops = np.eye(3)[None, :, :]
        else:
            ops = point_group.operations.astype(np.float64)
        return np.ascontiguousarray(
            np.einsum("ij,ojk,kl->oil", self.projection, ops, inv_ub)
        )

    def bin_index(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat bin indices of grid-coordinate points.

        Returns ``(flat_index, inside_mask)``; indices of outside points
        are clipped into range and must be masked by the caller.
        """
        c = np.asarray(coords, dtype=np.float64)
        nb = self.bins
        flat = inside = None
        # One axis at a time, so no ``(..., 3)`` temporaries are built.
        # Floor semantics identical to Hist3.push: the upper boundary is
        # exclusive (a point exactly at `maximum` is outside); both the
        # scalar and batch kernels must agree bin-for-bin.
        for axis, stride in enumerate((nb[1] * nb[2], nb[2], 1)):
            t = np.asarray(c[..., axis] - self.minimum[axis])
            t /= self.widths[axis]
            idx = np.floor(t, out=t).astype(np.int64)
            ok = (idx >= 0) & (idx < nb[axis])
            # clip (``np.clip`` costs more per call on small inputs)
            np.minimum(idx, nb[axis] - 1, out=idx)
            np.maximum(idx, 0, out=idx)
            if stride != 1:
                idx *= stride
            if flat is None:
                flat, inside = idx, ok
            else:
                flat += idx
                inside &= ok
        return flat, inside

    # -- constructors for the paper's cases ---------------------------------
    @classmethod
    def benzil_grid(
        cls,
        bins: Sequence[int] = (603, 603, 1),
        extent: float = 6.0,
        l_half_width: float = 0.5,
    ) -> "HKLGrid":
        """The Benzil/CORELLI grid: [H,H,0] x [H,-H,0] x [0,0,L].

        ``l_half_width`` is the integration half-thickness of the L
        slice (lBins = 1, as in the paper's 2-D slicing).  The paper's
        production slices are thinner; the default here is thick enough
        for laptop-scale synthetic statistics (DESIGN.md section 6).
        """
        basis = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]).T
        return cls(
            basis=basis,
            minimum=(-extent, -extent, -l_half_width),
            maximum=(extent, extent, l_half_width),
            bins=tuple(bins),
            names=("[H,H,0]", "[H,-H,0]", "[0,0,L]"),
        )

    @classmethod
    def bixbyite_grid(
        cls,
        bins: Sequence[int] = (601, 601, 1),
        extent: float = 8.0,
        l_half_width: float = 0.5,
    ) -> "HKLGrid":
        """The Bixbyite/TOPAZ grid: [H,0,0] x [0,K,0] x [0,0,L]."""
        return cls(
            basis=np.eye(3),
            minimum=(-extent, -extent, -l_half_width),
            maximum=(extent, extent, l_half_width),
            bins=tuple(bins),
            names=("[H,0,0]", "[0,K,0]", "[0,0,L]"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HKLGrid({self.names[0]} x {self.names[1]} x {self.names[2]}, "
            f"bins={self.bins})"
        )
