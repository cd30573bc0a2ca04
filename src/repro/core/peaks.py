"""Peak extraction from reduced cross-sections.

The downstream science of the whole workflow: locate Bragg peaks in
the reduced (H, K, L) histogram and identify them against the crystal's
reflection list.  In this reproduction it doubles as the end-to-end
physics validation — the peaks recovered from a synthetic measurement
must sit on the reciprocal-lattice nodes the generator sampled
(``tests/integration/test_peak_recovery.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.hist3 import Hist3
from repro.util.validation import require


@dataclass(frozen=True)
class PeakList:
    """Peaks found in a reduced histogram."""

    #: (n, 3) peak centers in grid coordinates
    grid_coords: np.ndarray
    #: (n, 3) the same centers mapped back to (H, K, L)
    hkl: np.ndarray
    #: (n,) peak heights (histogram units)
    intensity: np.ndarray

    @property
    def n_peaks(self) -> int:
        return int(self.intensity.shape[0])

    def strongest(self, n: int) -> "PeakList":
        order = np.argsort(self.intensity)[::-1][:n]
        return PeakList(
            grid_coords=self.grid_coords[order],
            hkl=self.hkl[order],
            intensity=self.intensity[order],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PeakList(n={self.n_peaks})"


def find_peaks(
    hist: Hist3,
    *,
    min_intensity: Optional[float] = None,
    neighborhood: int = 1,
) -> PeakList:
    """Locate local maxima of the histogram above a threshold.

    Parameters
    ----------
    hist:
        A reduced histogram (cross-section or BinMD output).  NaN bins
        (no normalization) are treated as empty.
    min_intensity:
        Absolute threshold; default = 5x the mean of the non-empty bins
        (a simple significance floor).
    neighborhood:
        Half-width (in bins) of the local-maximum window per dimension.
    """
    # scipy is imported here, not at module scope: peak finding is
    # analysis, and a reduction never loads it
    from scipy.ndimage import maximum_filter

    require(neighborhood >= 1, "neighborhood must be >= 1")
    data = np.nan_to_num(hist.signal, nan=0.0)
    if not np.any(data > 0):
        empty = np.empty((0, 3))
        return PeakList(grid_coords=empty, hkl=empty, intensity=np.empty(0))
    if min_intensity is None:
        positive = data[data > 0]
        min_intensity = 5.0 * float(positive.mean())

    size = [min(2 * neighborhood + 1, s) for s in data.shape]
    local_max = maximum_filter(data, size=size, mode="constant", cval=0.0)
    is_peak = (data == local_max) & (data >= min_intensity)
    idx = np.argwhere(is_peak)
    if idx.size == 0:
        empty = np.empty((0, 3))
        return PeakList(grid_coords=empty, hkl=empty, intensity=np.empty(0))

    grid = hist.grid
    centers = np.array(grid.minimum) + (idx + 0.5) * grid.widths
    hkl = centers @ grid.basis.T  # hkl = W @ c
    intensity = data[tuple(idx.T)]
    order = np.argsort(intensity)[::-1]
    return PeakList(
        grid_coords=centers[order],
        hkl=hkl[order],
        intensity=intensity[order],
    )


def match_to_reflections(
    peaks: PeakList,
    reflections_hkl: np.ndarray,
    *,
    tolerance: float,
) -> np.ndarray:
    """For each peak, whether an allowed reflection lies within
    ``tolerance`` (r.l.u., Chebyshev distance) of its HKL position."""
    refl = np.asarray(reflections_hkl, dtype=np.float64)
    if peaks.n_peaks == 0 or refl.shape[0] == 0:
        return np.zeros(peaks.n_peaks, dtype=bool)
    matched = np.zeros(peaks.n_peaks, dtype=bool)
    for i, hkl in enumerate(peaks.hkl):
        d = np.max(np.abs(refl - hkl[None, :]), axis=1)
        matched[i] = bool(np.any(d <= tolerance))
    return matched
