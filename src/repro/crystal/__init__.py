"""Crystallography substrate.

Everything the reduction needs to move between reciprocal-lattice
(H, K, L) coordinates and momentum transfer Q:

* :mod:`repro.crystal.lattice` — unit cells, metric tensors, the
  Busing-Levy B matrix, d-spacings;
* :mod:`repro.crystal.ub` — orientation (U) and UB matrices and the
  Q_sample <-> HKL transforms;
* :mod:`repro.crystal.goniometer` — sample rotations (omega/chi/phi);
* :mod:`repro.crystal.symmetry` — point-group symmetry operations
  generated by closure (Benzil's 6 ops, Bixbyite's 24 ops);
* :mod:`repro.crystal.structures` — the two published samples;
* :mod:`repro.crystal.reflections` — Bragg reflection enumeration with
  centering rules and a synthetic intensity model.
"""

from repro.util.lazy import lazy_exports

# public name -> defining module, imported on first use so that a
# reduction (lattice, UB, goniometer, symmetry) does not load the sample
# structures, reflection enumeration or indexing
_EXPORTS = {
    "UnitCell": "repro.crystal.lattice",
    "UBMatrix": "repro.crystal.ub",
    "rotation_about_axis": "repro.crystal.goniometer",
    "goniometer_omega_chi_phi": "repro.crystal.goniometer",
    "Goniometer": "repro.crystal.goniometer",
    "PointGroup": "repro.crystal.symmetry",
    "point_group": "repro.crystal.symmetry",
    "CrystalStructure": "repro.crystal.structures",
    "benzil": "repro.crystal.structures",
    "bixbyite": "repro.crystal.structures",
    "generate_reflections": "repro.crystal.reflections",
    "ReflectionList": "repro.crystal.reflections",
    "IndexingResult": "repro.crystal.indexing",
    "index_peaks": "repro.crystal.indexing",
    "indexing_error": "repro.crystal.indexing",
    "refine_ub": "repro.crystal.indexing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
