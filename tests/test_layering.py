"""Where the benchmark's traced spans live, what `cbc` reads of
`worst_case_error`, which module decides what an integer or a real input is,
and that the test oracles stay out of the package and the demos.

A traced benchmark run fails when a span it maps records no call, so a
function that moves out of the module its span names breaks the trace of
every workload that span is mapped to.  These checks catch the move without
running a workload.  Every count, index and size goes through
`numtheory._integer`, and every real parameter and array of reals through
`numtheory._real` and `_reals`, so no other module checks integers or real
numbers on its own."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()
# Spans the tracer makes from METHODS or around np.fft, not from a module function.
NOT_FUNCTIONS = {span for *_, span in TRACING.METHODS} | {"cbc.fft"}
FUNCTION_SPANS = sorted({span for span, *_ in TRACING.PER_LAYER.values()} - NOT_FUNCTIONS)


@pytest.mark.parametrize("span", FUNCTION_SPANS)
def test_traced_span_names_a_public_function_of_its_module(span):
    layer, name = span.split(".")
    module = importlib.import_module(f"latticeqmc.{layer}")
    fn = getattr(module, name, None)
    assert not name.startswith("_") and inspect.isfunction(fn), span
    assert fn.__module__ == f"latticeqmc.{layer}", f"{span} is defined in {fn.__module__}"


def test_cbc_imports_no_private_name_of_worst_case_error():
    tree = ast.parse((ROOT / "src" / "latticeqmc" / "cbc.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "worst_case_error"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _integer_checks(tree):
    """The integer checks a module makes itself: calls of operator.index, and
    isinstance tests against int or np.integer."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func == "operator.index":
            yield ast.unparse(node)
        elif func == "isinstance" and len(node.args) == 2:
            spec = node.args[1]
            names = [ast.unparse(e) for e in getattr(spec, "elts", [spec])]
            if any(n == "int" or n.endswith(".integer") for n in names):
                yield ast.unparse(node)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "latticeqmc").glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_numtheory_decides_what_an_integer_is(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.stem != "numtheory":
        assert list(_integer_checks(tree)) == [], "read integers through numtheory._integer"
    if path.stem == "special_functions":
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_kmax" not in defined


def _real_checks(tree):
    """The real-number checks a module makes itself: isinstance tests against
    bool or np.bool_, handlers of OverflowError around a float() call, and reads
    of an array's dtype kind."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "kind"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"):
            yield ast.unparse(node)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                and len(node.args) == 2):
            spec = node.args[1]
            names = [ast.unparse(e) for e in getattr(spec, "elts", [spec])]
            if any(n == "bool" or n.endswith(".bool_") for n in names):
                yield ast.unparse(node)
        elif isinstance(node, ast.Try):
            calls = {ast.unparse(n.func) for stmt in node.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Call)}
            caught = {ast.unparse(h.type) for h in node.handlers if h.type is not None}
            if "float" in calls and any("OverflowError" in c for c in caught):
                yield ast.unparse(node)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "latticeqmc").glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_numtheory_decides_what_a_real_number_is(path):
    if path.stem != "numtheory":
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert list(_real_checks(tree)) == [], "read real numbers through numtheory._real(s)"


def test_no_module_of_the_package_or_the_demos_holds_a_test_oracle():
    """No alias, re-export or second copy of a function of tests/oracles.py, and
    no import of that module: the demos run with only src/ on the path."""
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    names = {node.name for node in oracles.body if isinstance(node, ast.FunctionDef)}
    found = []
    for path in sorted((ROOT / "src" / "latticeqmc").glob("*.py")) + sorted(
            (ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound = {node.id}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):  # module paths, names, aliases
                paths = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                bound = {part for p in paths for part in p.split(".")}
                bound |= {a.asname for a in node.names}
            else:
                continue
            found += [f"{path.name}: {name}" for name in sorted(bound & (names | {"oracles"}))]
    assert found == []
