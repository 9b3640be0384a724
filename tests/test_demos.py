"""Every neilcone name a demo uses must exist.

The demos run for minutes, so they are parsed rather than run: each name
imported from the package, and each attribute read from an imported
package module, is looked up in the installed package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
