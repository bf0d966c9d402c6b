"""The package root holds its modules and version, and re-exports no names.

Its modules import only names they use and define no private name that
nothing references.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_src_has_no_unused_imports_or_private_names():
    # every name a module imports is used in it, and every private
    # module-level name is referenced somewhere in the package; the package
    # root's module imports are what it exposes, so they are exempt
    src = Path(slmprecode.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                referenced.update(alias.name for alias in node.names)
    problems = []
    for name, tree in trees.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                if name == "__init__.py" and node.level and node.module is None:
                    continue
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            problems += [f"{name}: imports {b} and never uses it" for b in bound if b not in used]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            problems += [f"{name}: {d} is private and nothing references it" for d in defined
                         if d.startswith("_") and not d.endswith("__") and d not in referenced]
    assert not problems
