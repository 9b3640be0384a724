"""The demos: every neilcone name each one uses must exist, and the fast
ones must run.

Each name imported from the package, and each attribute read from an
imported package module, is looked up in the installed package.  Every
demo also runs as a script, and each must exit 0 and print its key line;
``counterexample_certificate.py``, the slowest, certifies the six-point
flagship problem in a few seconds.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neilcone

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))

# Demo -> a line its output must contain.
KEY_LINES = {
    "commuting_pair.py": "the witness acts with norm > 1 although |X|, |Y| <= 1",
    "counterexample_certificate.py": "2x2 amplification deficiency t = -5.38",
    "gns_bridge.py": "amplified deficiency t = +0.21",
    "naimark_dilation.py": "coin split: n=1 summands=2 reconstruction error",
    "pick_interpolation.py": "restricted to the z^2 / z^3 generators: infeasible",
    "shift_obstruction.py": "<U^3 e_0, e_3> = (1+0j)",
    "variety_sweep.py": "unitary pair T = -S:\n  dilation exists",
}


def package_names(tree: ast.Module):
    """(module, name) pairs the demo needs from the package."""
    modules = {}  # local name -> package module path
    needed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "neilcone"):
            for alias in node.names:
                sub = "%s.%s" % (node.module, alias.name)
                try:
                    importlib.import_module(sub)
                    modules[alias.asname or alias.name] = sub
                except ImportError:
                    needed.append((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "neilcone":
                    importlib.import_module(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            needed.append((modules[node.value.id], node.attr))
    return needed


def test_demos_found():
    assert DEMOS  # an empty glob would leave the test below with no cases


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_exist(demo):
    needed = package_names(ast.parse(demo.read_text(), filename=str(demo)))
    missing = [(mod, name) for mod, name in needed
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_fast_demo_runs(name):
    src = str(Path(neilcone.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(DEMO_DIR / name)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert KEY_LINES[name] in done.stdout
