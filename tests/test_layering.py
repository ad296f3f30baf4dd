"""Layering: the CLI and the verify-paper suite sit on top of the library.

Imports are read from the source with ast, so a module that reached up
into cli or verify would fail here even if the import were never run.
"""

import ast
from pathlib import Path

import pytest

import holring

PACKAGE = Path(holring.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
TOP = {"holring.cli", "holring.verify"}


def _imports(module: str) -> list:
    """(imported module, imported name or None) for each import in a module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "holring" if node.level else ""
            target = ".".join(x for x in (base, node.module) if x)
            for a in node.names:
                if node.module is None:
                    out.append((f"{target}.{a.name}", None))
                else:
                    out.append((target, a.name))
    return out


def test_every_module_is_checked():
    assert {"cli", "verify", "groups", "groupring", "rednorm"} <= set(MODULES)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_library_does_not_import_cli_or_verify(module):
    bad = [t for t, _ in _imports(module) if t in TOP]
    assert bad == [], f"holring.{module} imports {bad}"


def test_cli_takes_only_run_checks_from_verify():
    names = {name for target, name in _imports("cli") if target == "holring.verify"}
    assert names == {"run_checks"}


def _scalar_type_leaks(module: str) -> list:
    """Lines that test a value for CycloNum or name canon_coeff."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            if any(getattr(n, "id", None) == "CycloNum" for a in node.args[1:] for n in ast.walk(a)):
                out.append(node.lineno)
        elif "canon_coeff" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None)):
            out.append(node.lineno)
    return out


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cyclotomic"])
def test_one_scalar_type_per_role(module):
    # Q[G] is rational and central values are CycloNum, so no module but
    # cyclotomic needs to ask which one it holds
    assert _scalar_type_leaks(module) == [], f"holring.{module}"


def _holring_targets(node) -> list:
    """The holring modules an Import or ImportFrom node names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level:
        names = [f"holring.{node.module}"] if node.module else [f"holring.{a.name}" for a in node.names]
    else:
        names = [node.module]
    return [n.split(".")[1] for n in names if n.startswith("holring.")]


def _tree(module: str):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


@pytest.mark.parametrize("module", MODULES)
def test_holring_imports_sit_at_module_level(module):
    # an import deferred into a function hides a cycle from the import graph
    inner = [
        node.lineno
        for fn in ast.walk(_tree(module))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _holring_targets(node)
    ]
    assert inner == [], f"holring.{module} imports holring inside a function at lines {inner}"


def test_module_import_graph_is_acyclic():
    graph = {
        m: {
            t
            for node in ast.walk(_tree(m))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for t in _holring_targets(node)
        }
        for m in MODULES
    }
    done, path = set(), []

    def visit(m):
        if m in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(m):] + [m]))
        if m in done:
            return
        path.append(m)
        for t in sorted(graph.get(m, ())):
            visit(t)
        path.pop()
        done.add(m)

    for m in MODULES:
        visit(m)
