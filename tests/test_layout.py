"""The package's import graph: imports only at module level, and the
Cauchy module standing on numpy and ``errors`` alone."""

import ast
from pathlib import Path

import slope_lab

SRC = Path(slope_lab.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def test_no_import_inside_a_function():
    local = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path.name)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert local == []


def test_cauchy_imports_no_package_module_but_errors():
    modules = set()
    for node in ast.walk(_tree("cauchy.py")):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            modules |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("slope_lab"):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules |= {a.name for a in node.names if a.name.startswith("slope_lab")}
    assert modules == {"errors"}
