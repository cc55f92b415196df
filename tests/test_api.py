"""Every public name of the package has a caller in the package.

A name exported by ``mlqmc_eig/__init__.py`` must be referenced by some
module of the package outside its own definition and ``__init__``, or be
one of the deliberate diagnostics listed below (none at present; the
point-set diagnostics live in ``tests/qmc_diagnostics.py``).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mlqmc_eig

PACKAGE = Path(mlqmc_eig.__file__).parent
DIAGNOSTICS: set[str] = set()


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names() -> set[str]:
    """Names read or imported by the package modules, each top-level
    definition's references to its own name left out."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.discard(statement.name)
            found |= names
    return found


def test_every_export_has_a_caller():
    exported = exported_names()
    assert DIAGNOSTICS <= exported
    uncalled = exported - referenced_names() - DIAGNOSTICS
    assert not uncalled, f"exported but never used in the package: {sorted(uncalled)}"


def test_import_leaves_diagnostic_dependencies_unloaded():
    # scipy.spatial serves only the test diagnostic max_nn_distance; a
    # plain import of the package must not load it
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, mlqmc_eig; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
