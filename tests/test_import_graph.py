"""What a reduction imports: only the layers it runs.

Every rank of a campaign pays its interpreter's imports before the first
event is read, so the reduction modules must not pull in synthesis
(scipy's KD-tree, event generation), analysis (peak finding, rendering,
reduced-data output), plans, streaming, the benchmark harness, the
campaign service, the sample structures, the NeXus schema or the
process-pool machinery at module scope.  Each check runs in a fresh
interpreter, because this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: modules the reduction workflow must leave unloaded
NOT_IN_REDUCTION = (
    "scipy",
    "repro.instruments.synth",
    "repro.core.peaks",
    "repro.core.streaming",
    "repro.core.plan",
    "repro.core.render",
    "repro.core.rebin",
    "repro.core.output",
    "repro.bench.harness",
    "repro.service",
    "repro.crystal.structures",
    "repro.crystal.reflections",
    "repro.crystal.indexing",
    "repro.nexus.schema",
    "repro.nexus.filtering",
    # the shard pool and shared-memory transport load when a pool starts
    "multiprocessing",
    "concurrent.futures.process",
)

#: modules the CLI must leave unloaded until a subcommand needs them
NOT_IN_CLI = ("repro.bench.harness", "repro.baseline", "repro.proxy", "scipy")

PACKAGES = ("repro", "repro.core", "repro.instruments", "repro.bench",
            "repro.crystal", "repro.nexus")


def _run(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(statement: str, modules) -> list:
    return _run(
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))"
    )


def test_reduction_workflow_imports_no_synthesis_or_analysis():
    assert _loaded_after("import repro.core.workflow", NOT_IN_REDUCTION) == []


def test_scipy_loads_only_when_synthesis_or_peaks_run():
    """Importing the two modules that use scipy does not load it."""
    statement = "import repro.core.peaks, repro.instruments.detector"
    assert _loaded_after(statement, ("scipy",)) == []


def test_cli_defers_harness_and_implementations():
    assert _loaded_after("import repro.cli", NOT_IN_CLI) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve(package):
    """Every ``__all__`` name resolves on first use, is listed by
    ``dir()`` and names the public object, not a submodule that shares
    its name (``repro.core.mdnorm`` is the kernel function); unknown
    names raise ``AttributeError``."""
    problems = _run(
        "import importlib, json, types\n"
        # the reduction's own imports first: they load submodules (such
        # as repro.core.mdnorm) that could shadow a public name
        "import repro.core.workflow\n"
        f"pkg = importlib.import_module({package!r})\n"
        "listed = dir(pkg)\n"
        "bad = []\n"
        "for name in pkg.__all__:\n"
        "    value = getattr(pkg, name)\n"
        "    if isinstance(value, types.ModuleType) or name not in listed:\n"
        "        bad.append(name)\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "    bad.append('no_such_name resolved')\n"
        "except AttributeError:\n"
        "    pass\n"
        "print(json.dumps(bad))"
    )
    assert problems == []


def test_example_streaming_import():
    """``examples/live_streaming.py``'s import line, in a fresh interpreter."""
    assert _run(
        "import json\n"
        "from repro.core import EventStream, StreamingReduction\n"
        "print(json.dumps([EventStream.__module__, StreamingReduction.__module__]))"
    ) == ["repro.core.streaming", "repro.core.streaming"]
