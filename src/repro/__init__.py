"""repro: a performance-portable CPU/GPU neutron data-reduction ecosystem.

A from-scratch Python reproduction of *"Integrating ORNL's HPC and
Neutron Facilities with a Performance-Portable CPU/GPU Ecosystem"*
(Hahn et al., SC 2024): the Mantid ``MDNorm`` + ``BinMD`` differential
scattering cross-section workflow for the SNS CORELLI and TOPAZ
instruments, the Garnet production baseline, the two proxy applications
(the ``extract_mdnorm`` C++ proxy and ``MiniVATES.jl``), and every
substrate they stand on — a JACC.jl-style performance-portability
layer, an in-process MPI, an HDF5/NeXus-like container, crystallography
and instrument models, and a synthetic event pipeline replacing the
facility-internal data.

Quick start::

    from repro.bench.workloads import benzil_corelli, build_workload
    from repro.proxy import MiniVatesConfig, MiniVatesWorkflow

    data = build_workload(benzil_corelli(scale=0.001, n_files=4))
    result = MiniVatesWorkflow(MiniVatesConfig(
        md_paths=data.md_paths,
        flux_path=data.flux_path,
        vanadium_path=data.vanadium_path,
        instrument=data.instrument,
        grid=data.grid,
        point_group=data.point_group,
    )).run()
    print(result.cross_section)       # the reduced 2-D slice
    print(result.timings.summary())   # UpdateEvents / MDNorm / BinMD WCT

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

__version__ = "1.0.0"

from repro.util.lazy import lazy_exports

# public name -> defining module, imported on first use: every
# ``repro.*`` import runs this file first, so it must not load the core
_EXPORTS = {
    "HKLGrid": "repro.core.grid",
    "Hist3": "repro.core.hist3",
    "MDEventWorkspace": "repro.core.md_event_workspace",
    "ReductionWorkflow": "repro.core.workflow",
    "WorkflowConfig": "repro.core.workflow",
    "bin_events": "repro.core.binmd",
    "compute_cross_section": "repro.core.cross_section",
    "convert_to_md": "repro.core.md_event_workspace",
    "load_md": "repro.core.md_event_workspace",
    "mdnorm": "repro.core.mdnorm",
    "save_md": "repro.core.md_event_workspace",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
