"""perfbench's layer hooks still find what they wrap.

``perfbench/layers.py`` times each layer by swapping a wrapper onto a
name it looks up in a module or class namespace
(``owner.__dict__[attr]``), and puts the original back on exit.  A
refactor that drops one of those bindings breaks only the traced
benchmark pass, so this test installs and removes every wrapper: each
target must resolve, be wrapped inside the block, and be the original
object again afterwards.  ``perfbench/`` is loaded by path, read-only.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name, path):
    owner = importlib.import_module(module_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, attr


def _namespaces():
    """A copy of every loaded ``repro`` module's and class's namespace."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        out[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_every_hook_wraps_and_restores():
    layers = _load_layers()
    targets = [_target(m, path) for m, path, _layer, _count in layers.TARGETS]
    for owner, attr in targets:
        assert attr in vars(owner), f"{owner!r} no longer binds {attr!r}"
    originals = [vars(owner)[attr] for owner, attr in targets]
    before = _namespaces()

    with layers.instrumented(layers.LayerClock()):
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, f"{owner!r}.{attr}"

    after = _namespaces()
    changed = [
        f"{ns}.{attr}"
        for ns, names in before.items()
        for attr, value in names.items()
        if attr not in after[ns] or after[ns][attr] is not value
    ]
    assert changed == []
