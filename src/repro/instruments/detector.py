"""Pixelated detector arrays.

A :class:`DetectorArray` is the geometry substrate shared by both
instrument models: per-pixel lab-frame positions, flight paths, solid
angles, and a fast nearest-direction lookup (used by the synthetic event
generator to map a scattered neutron onto the pixel that records it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from repro.util.validation import ValidationError, require


@dataclass
class DetectorArray:
    """Geometry of every pixel of an instrument.

    Attributes
    ----------
    name:
        Instrument name ("CORELLI", "TOPAZ", ...).
    positions:
        ``(n_pixels, 3)`` lab-frame pixel centers in meters (sample at
        the origin, beam along +z).
    pixel_area:
        ``(n_pixels,)`` sensitive area of each pixel in m^2.
    l1:
        Moderator-to-sample distance in meters.
    wavelength_band:
        Default ``(lambda_min, lambda_max)`` in Angstrom the instrument
        choppers accept.
    """

    name: str
    positions: np.ndarray
    pixel_area: np.ndarray
    l1: float
    wavelength_band: tuple[float, float]

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValidationError(f"positions must be (n, 3), got {self.positions.shape}")
        self.pixel_area = np.ascontiguousarray(self.pixel_area, dtype=np.float64)
        require(self.pixel_area.shape == (self.positions.shape[0],),
                "pixel_area length mismatch")
        require(self.l1 > 0, "l1 must be positive")
        lo, hi = self.wavelength_band
        require(0 < lo < hi, "wavelength_band must satisfy 0 < min < max")
        l2 = np.linalg.norm(self.positions, axis=1)
        if np.any(l2 <= 0):
            raise ValidationError("pixels at the sample position are invalid")

    @property
    def n_pixels(self) -> int:
        return int(self.positions.shape[0])

    @cached_property
    def l2(self) -> np.ndarray:
        """Sample-to-pixel distance per pixel, meters."""
        return np.linalg.norm(self.positions, axis=1)

    @cached_property
    def directions(self) -> np.ndarray:
        """Unit vectors sample -> pixel, ``(n, 3)``."""
        return self.positions / self.l2[:, None]

    @cached_property
    def two_theta(self) -> np.ndarray:
        """Scattering angles per pixel, radians."""
        cos_tt = np.clip(self.directions[:, 2], -1.0, 1.0)
        return np.arccos(cos_tt)

    @cached_property
    def solid_angles(self) -> np.ndarray:
        """Approximate solid angle per pixel: area / L2^2 (normal incidence)."""
        return self.pixel_area / self.l2**2

    @cached_property
    def flight_paths(self) -> np.ndarray:
        """Total flight path L1 + L2 per pixel, meters."""
        return self.l1 + self.l2

    @cached_property
    def _direction_tree(self):
        # scipy is imported here, not at module scope: only synthesis
        # maps directions onto pixels, so a reduction never loads it
        from scipy.spatial import cKDTree

        return cKDTree(self.directions)

    @cached_property
    def mean_pixel_angular_radius(self) -> float:
        """Angular half-extent of a typical pixel, radians."""
        return float(np.sqrt(self.pixel_area / np.pi).mean() / self.l2.mean())

    def nearest_pixel(
        self, directions: np.ndarray, max_angle: Optional[float] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map unit direction vectors onto the closest pixel.

        Returns ``(pixel_indices, hit_mask)``; a direction whose angular
        distance to the closest pixel center exceeds ``max_angle``
        (default: 1.5x the mean pixel angular radius) missed the
        detector coverage and has ``hit_mask = False``.
        """
        d = np.asarray(directions, dtype=np.float64)
        require(d.ndim == 2 and d.shape[1] == 3, "directions must be (n, 3)")
        if max_angle is None:
            max_angle = 1.5 * self.mean_pixel_angular_radius
        # chord length <-> angle: |a - b| = 2 sin(angle / 2) for unit vectors
        max_chord = 2.0 * np.sin(0.5 * max_angle)
        dist, idx = self._direction_tree.query(d, k=1)
        hit = dist <= max_chord
        return idx.astype(np.int64), hit

    def momentum_band(self) -> tuple[float, float]:
        """The accepted momentum range (k_min, k_max) in 1/Angstrom."""
        lo, hi = self.wavelength_band
        return 2.0 * np.pi / hi, 2.0 * np.pi / lo

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tt = np.degrees(self.two_theta)
        return (
            f"DetectorArray({self.name!r}, pixels={self.n_pixels}, "
            f"two_theta=[{tt.min():.1f}, {tt.max():.1f}] deg, L1={self.l1} m)"
        )
