"""The package root holds its modules and version, and re-exports no names."""

import json
import os
import subprocess
import sys

import slmprecode

MODULES = ["errors", "harness", "linalg", "precoders", "regions", "shaping", "theory"]

# Run in a fresh interpreter: importing a submodule elsewhere in the test
# session (slmprecode.cli) would add it to the package namespace.
_PROBE = """
import json, types
import slmprecode
print(json.dumps({
    "public": sorted(n for n in vars(slmprecode) if not n.startswith("_")),
    "modules": sorted(n for n, v in vars(slmprecode).items() if isinstance(v, types.ModuleType)),
    "version": slmprecode.__version__,
    "has_all": hasattr(slmprecode, "__all__"),
    "run_experiment": callable(slmprecode.harness.run_experiment),
}))
"""


def test_package_root_is_its_modules():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(slmprecode.__file__)))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    root = json.loads(proc.stdout)
    assert root["public"] == MODULES
    assert root["modules"] == MODULES
    assert root["version"] == slmprecode.__version__
    assert not root["has_all"]
    # a bare import loads every module
    assert root["run_experiment"]
