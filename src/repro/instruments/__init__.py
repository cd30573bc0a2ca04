"""Instrument models: CORELLI and TOPAZ geometry plus event synthesis.

The real experiment data (8.5 GB Benzil / 206 GB Bixbyite NeXus files)
is facility-internal; this subpackage substitutes a physically faithful
synthetic pipeline:

* :mod:`repro.instruments.detector` — generic pixelated detector arrays
  (positions, flight paths, solid angles, direction lookup);
* :mod:`repro.instruments.corelli` — CORELLI's cylindrical geometry
  (372K pixels at full scale, 20 m moderator-sample flight path);
* :mod:`repro.instruments.topaz` — TOPAZ's panel geometry (1.6M pixels
  at full scale, short sample-detector distances);
* :mod:`repro.instruments.conversion` — time-of-flight <-> wavelength
  <-> momentum <-> Q_lab kinematics;
* :mod:`repro.instruments.synth` — synthetic single-crystal event
  generation: Bragg peaks + diffuse scattering from the sample's real
  lattice, mapped through the exact inverse of the reduction kinematics
  onto (pixel id, time-of-flight) events.
"""

from repro.util.lazy import lazy_exports

# public name -> defining module, imported on first use so that loading
# the detector model for a reduction does not load event synthesis
_EXPORTS = {
    "DetectorArray": "repro.instruments.detector",
    "make_corelli": "repro.instruments.corelli",
    "make_topaz": "repro.instruments.topaz",
    "tof_to_wavelength": "repro.instruments.conversion",
    "wavelength_to_tof": "repro.instruments.conversion",
    "wavelength_to_momentum": "repro.instruments.conversion",
    "momentum_to_wavelength": "repro.instruments.conversion",
    "q_lab_from_events": "repro.instruments.conversion",
    "H_OVER_MN": "repro.instruments.conversion",
    "SynthesisConfig": "repro.instruments.synth",
    "synthesize_run": "repro.instruments.synth",
    "instrument_q_window": "repro.instruments.synth",
    "read_instrument": "repro.instruments.idf",
    "write_instrument": "repro.instruments.idf",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
