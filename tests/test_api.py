"""The public API: tenkit.__all__ is the layer modules' __all__ lists."""

import json
import os
import subprocess
import sys

import tenkit as tk

LAYERS = ("core", "elementwise", "products", "factor", "network", "decomp", "io", "errors")


def test_all_is_the_concatenation_of_the_layer_lists():
    modules = [getattr(tk, name) for name in LAYERS]
    assert tk.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(tk.__all__)) == len(tk.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(tk, name) is getattr(m, name), (m.__name__, name)


def test_public_names_are_the_api_and_the_layer_modules():
    # A fresh interpreter: importing tenkit.cli elsewhere in the session
    # would add "cli" to dir(tenkit).
    code = "import json, tenkit; print(json.dumps([n for n in dir(tenkit) if not n.startswith('_')]))"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    public = set(json.loads(out.stdout))
    assert public == set(tk.__all__) | set(LAYERS)
    assert len(public) == 92


def test_star_import_gives_the_api():
    scope = {}
    exec("from tenkit import *", scope)
    assert set(scope) - {"__builtins__"} == set(tk.__all__)


def _sources_except(allowed):
    """(file name, text) of each module of the package not named in allowed."""
    src = os.path.dirname(tk.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name not in allowed:
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, fh.read()


def test_storage_order_is_known_only_to_core():
    # Other modules see a tensor's entries through to_array() and
    # core._rev/_from_rev; none reshapes or ravels the buffer in F order.
    for name, text in _sources_except(("core.py",)):
        for needle in ('order="F"', "order='F'", "_nd(", "_tensor_from_nd"):
            assert needle not in text, (name, needle)


def test_computed_tensors_are_built_only_by_core():
    # The public constructors check and copy data from outside the library
    # (io parses a file, network a .tn text); every array the library
    # computes becomes a tensor through core._from_rev, uncopied.
    for name, text in _sources_except(("core.py", "io.py", "network.py")):
        for needle in ("DenseTensor(", "from_array(", "_wrap("):
            assert needle not in text, (name, needle)
