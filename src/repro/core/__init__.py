"""The paper's primary contribution: the cross-section reduction core.

Implements Mantid's ``MDNorm`` (trajectory normalization) and ``BinMD``
(event histogramming) as performance-portable kernels on the
:mod:`repro.jacc` layer, plus the Algorithm-1 driver that combines them
over MPI into the differential scattering cross-section
``sum(BinMD) / sum(MDNorm)``.

Module map (one file per algorithmic piece, mirroring the paper's
decomposition of the "monolithic closed-box" Mantid workflow):

* :mod:`repro.core.grid` — the output (H, K, L) histogram grid with its
  projection basis (Benzil bins along [H,H] / [H,-H] / [L]);
* :mod:`repro.core.hist3` — the 3-D thread-safe histogram (Hist3 /
  MDHistoWorkspace analogue) with atomic accumulation;
* :mod:`repro.core.md_event_workspace` — MDEvent storage + the
  raw-event -> Q_sample conversion and the SaveMD/LoadMD files the
  proxies load (the timed ``UpdateEvents`` stage);
* :mod:`repro.core.combsort` — the allocation-free in-kernel sort
  (scalar and lane-parallel variants);
* :mod:`repro.core.intersections` — trajectory/grid-plane intersection
  geometry;
* :mod:`repro.core.binmd` — BinMD kernels (scalar + batch);
* :mod:`repro.core.mdnorm` — MDNorm kernels (scalar + batch), including
  the max-intersections pre-pass;
* :mod:`repro.core.cross_section` — Algorithm 1 over a communicator;
* :mod:`repro.core.workflow` — file-driven end-to-end reduction with
  per-stage timing;
* :mod:`repro.core.geom_cache` — the memoized geometry/flux cache
  behind the MDNorm/BinMD hot path (LRU byte budget, content-digest
  keys, hit/miss counters).
"""

from repro.util.lazy import lazy_exports

# ``mdnorm`` names both a submodule and its kernel function.  Importing
# the submodule rebinds the package attribute to the module, so the
# function is bound here, after that import, as the eager package did.
from repro.core.mdnorm import mdnorm

# public name -> defining module, imported on first use so that a
# reduction does not load streaming, peaks, plans, rendering or output
_EXPORTS = {
    "HKLGrid": "repro.core.grid",
    "Hist3": "repro.core.hist3",
    "MDEventWorkspace": "repro.core.md_event_workspace",
    "convert_to_md": "repro.core.md_event_workspace",
    "save_md": "repro.core.md_event_workspace",
    "load_md": "repro.core.md_event_workspace",
    "comb_sort": "repro.core.combsort",
    "comb_sort_rows": "repro.core.combsort",
    "bin_events": "repro.core.binmd",
    "mdnorm": "repro.core.mdnorm",
    "max_intersections": "repro.core.mdnorm",
    "prefetch_geometry": "repro.core.mdnorm",
    "GeomCache": "repro.core.geom_cache",
    "CacheStats": "repro.core.geom_cache",
    "DISABLED": "repro.core.geom_cache",
    "default_cache": "repro.core.geom_cache",
    "set_default_cache": "repro.core.geom_cache",
    "CrossSectionResult": "repro.core.cross_section",
    "compute_cross_section": "repro.core.cross_section",
    "ReductionWorkflow": "repro.core.workflow",
    "WorkflowConfig": "repro.core.workflow",
    "EventStream": "repro.core.streaming",
    "StreamBatch": "repro.core.streaming",
    "StreamingReduction": "repro.core.streaming",
    "InMemoryReducer": "repro.core.rebin",
    "PeakList": "repro.core.peaks",
    "find_peaks": "repro.core.peaks",
    "match_to_reflections": "repro.core.peaks",
    "save_reduced": "repro.core.output",
    "load_reduced": "repro.core.output",
    "ReductionPlan": "repro.core.plan",
    "load_plan": "repro.core.plan",
    "run_plan": "repro.core.plan",
    "save_plan": "repro.core.plan",
    "ascii_map": "repro.core.render",
    "render_hist": "repro.core.render",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
