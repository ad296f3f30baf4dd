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


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_holring_imports_sit_at_module_level(module):
    # an import deferred into a function hides a cycle from the import
    # graph; cli, the top layer that nothing imports, defers each
    # library import to the subcommand that runs it
    inner = [
        node.lineno
        for fn in ast.walk(_tree(module))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _holring_targets(node)
    ]
    assert inner == [], f"holring.{module} imports holring inside a function at lines {inner}"


def _graph() -> dict:
    """Each module's holring imports, in function bodies too."""
    return {
        m: {
            t
            for node in ast.walk(_tree(m))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for t in _holring_targets(node)
        }
        for m in MODULES
    }


def test_cli_import_edges_cover_every_module_it_runs():
    # the handlers' own imports keep cli's edges in the graph below
    assert _graph()["cli"] == {"blocks", "chartable", "citations", "dt", "groupring",
                               "groups", "linalg", "rednorm", "reports", "verify"}


@pytest.mark.parametrize("module", MODULES)
def test_no_import_escapes_the_graph(module):
    # a module named at run time would be an edge the ast cannot see
    calls = [
        node.lineno
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call)
        and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        & {"__import__", "import_module"}
    ]
    assert calls == [], f"holring.{module} imports by name at lines {calls}"


def test_module_import_graph_is_acyclic():
    graph = _graph()
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


MATH_EXACT = {"gcd", "lcm", "prod", "isqrt", "factorial", "inf"}


def _float_uses(module: str) -> list:
    """Lines with a float literal, a call to float or round, or a math name
    outside the exact integer functions."""
    out = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "round"):
            out.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math"
              and node.attr not in MATH_EXACT):
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [node.lineno for a in node.names if a.name not in MATH_EXACT]
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_floats(module):
    # every value is exact: ints, Fractions and cyclotomic numbers
    assert _float_uses(module) == [], f"holring.{module}"


@pytest.mark.parametrize("module", MODULES)
def test_no_dataclasses(module):
    # records are NamedTuples: importing dataclasses and building each
    # class's methods through exec costs every CLI call about 25 ms
    bad = [t for t, _ in _imports(module) if t == "dataclasses"]
    assert bad == [], f"holring.{module}"


@pytest.mark.parametrize("module", MODULES)
def test_a_subgroup_is_a_set_of_ids(module):
    # normal subgroups, G' and the Frobenius kernel are frozensets of
    # element ids, as every subgroup argument is: no wrapper to unwrap
    bad = [
        node.lineno
        for node in ast.walk(_tree(module))
        if (isinstance(node, ast.ClassDef) and node.name == "Subgroup")
        or (isinstance(node, ast.Attribute) and node.attr == "element_ids")
    ]
    assert bad == [], f"holring.{module} lines {bad}"


def test_report_rules_return_their_derivations():
    # each rule returns (rule name, conditions, statements) triples; none
    # appends to a shared list and reads its own output back by slicing
    params, slices = [], []
    for node in ast.walk(_tree("reports")):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            params += [(node.lineno, n) for n in names if n in ("statements", "rules")]
        elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "statements":
            index = node.slice
            bounds = [index.lower, index.upper] if isinstance(index, ast.Slice) else [index]
            if any(isinstance(b, ast.UnaryOp) and isinstance(b.op, ast.USub) for b in bounds):
                slices.append(node.lineno)
    assert params == [], f"holring.reports parameters {params}"
    assert slices == [], f"holring.reports reads statements from the end at lines {slices}"


def test_linalg_imports_no_holring_module():
    # exact linear algebra sits below every other layer
    assert [t for t, _ in _imports("linalg") if t.startswith("holring")] == []


# cyclotomic's `_cyclo` (a value from int numerators, unchecked) and
# `_rational` (the rational input check) serve the modules that build
# character and central values in bulk
SHARED_PRIVATE = {("holring.cyclotomic", "_cyclo"), ("holring.cyclotomic", "_rational")}


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_module(module):
    bad = [
        f"{t}.{name}"
        for t, name in _imports(module)
        if t.startswith("holring") and name and name.startswith("_") and (t, name) not in SHARED_PRIVATE
    ]
    assert bad == [], f"holring.{module} imports private names {bad}"


def test_every_tracer_target_resolves():
    # perfbench's tracer wraps the (module, attribute path) pairs of its
    # TARGETS by name; the suite does not run the benchmark, so a rename in
    # src that leaves one unresolved would break `--trace 1` unseen
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr_path, *_ in tracer.TARGETS:
        obj = importlib.import_module(f"holring.{module}")
        for part in attr_path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr_path}")
    assert len(tracer.TARGETS) > 20
    assert missing == []
