"""NeXus-like hierarchical data storage substrate.

The paper's workflow consumes event data stored in the NeXus schema on
top of HDF5.  Neither library is available offline, so this subpackage
provides:

* :mod:`repro.nexus.h5lite` — a from-scratch hierarchical binary file
  format (groups, typed datasets, attributes, per-dataset checksums)
  with an h5py-flavoured API;
* :mod:`repro.nexus.schema` — the NeXus event-entry schema used by the
  SNS instruments (entry/events, DAS logs, sample/UB, proton charge);
* :mod:`repro.nexus.events` — in-memory run representation (``RunData``)
  and the 8-column MDEvent table layout shared with the proxies;
* :mod:`repro.nexus.corrections` — the Vanadium (solid angle x
  efficiency) and Flux (integrated incident spectrum) files the MDNorm
  normalization requires.
"""

from repro.util.lazy import lazy_exports

# public name -> defining module, imported on first use so that a
# reduction (h5lite, events, corrections) does not load the NeXus event
# schema or the time filters
_EXPORTS = {
    "File": "repro.nexus.h5lite",
    "Group": "repro.nexus.h5lite",
    "Dataset": "repro.nexus.h5lite",
    "H5LiteError": "repro.nexus.h5lite",
    "RunData": "repro.nexus.events",
    "EventTable": "repro.nexus.events",
    "COL_SIGNAL": "repro.nexus.events",
    "COL_ERROR_SQ": "repro.nexus.events",
    "COL_RUN_INDEX": "repro.nexus.events",
    "COL_DETECTOR_ID": "repro.nexus.events",
    "COL_GONIOMETER_INDEX": "repro.nexus.events",
    "COL_QX": "repro.nexus.events",
    "COL_QY": "repro.nexus.events",
    "COL_QZ": "repro.nexus.events",
    "N_EVENT_COLUMNS": "repro.nexus.events",
    "write_event_nexus": "repro.nexus.schema",
    "read_event_nexus": "repro.nexus.schema",
    "NXEntryInfo": "repro.nexus.schema",
    "filter_time_window": "repro.nexus.filtering",
    "split_by_time": "repro.nexus.filtering",
    "run_duration": "repro.nexus.filtering",
    "FluxSpectrum": "repro.nexus.corrections",
    "VanadiumData": "repro.nexus.corrections",
    "write_flux_file": "repro.nexus.corrections",
    "read_flux_file": "repro.nexus.corrections",
    "write_vanadium_file": "repro.nexus.corrections",
    "read_vanadium_file": "repro.nexus.corrections",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
