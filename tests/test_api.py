"""The public names the package exports, and the bindings the benchmark uses.

perfbench/tracer.py wraps every function named in a module's `__all__` plus a
few named extras, and perfbench/workloads.py calls into the package directly;
a deleted or renamed name there would break only the benchmark, so these
tests pin the names and run perfbench/selftest.py.  The last tests pin the
README's promise that no floating point is used.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

from eiscong.pullback import epsilon, gamma1, gamma2
from eiscong.qexp import default_precision, eigen_basis, miller_basis, std_l_value
from eiscong.quadform import parse_half_integral

MODULES = (
    "eiscong",
    "eiscong.arith",
    "eiscong.cli",
    "eiscong.eisen",
    "eiscong.errors",
    "eiscong.gegenbauer",
    "eiscong.pullback",
    "eiscong.qexp",
    "eiscong.quadform",
    "eiscong.siegelseries",
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize(
    "module_name, path",
    [
        ("quadform", "canonical_signed_perm"),
        ("siegelseries", "expected_degree"),
        ("eisen", "EisensteinContext.coefficient"),
        ("gegenbauer", "BivariatePoly.evaluate"),
        ("cli", "main"),
        ("pullback", "epsilon"),
        ("quadform", "HalfIntegralMatrix.diagonal"),
        ("quadform", "HalfIntegralMatrix.from_doubled"),
        ("quadform", "HalfIntegralMatrix.identity"),
        ("quadform", "HalfIntegralMatrix.transform"),
        ("quadform", "format_half_integral"),
        ("errors", "BudgetExceeded"),
    ],
)
def test_benchmark_bindings_exist(module_name, path):
    obj = import_module(f"eiscong.{module_name}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


@pytest.mark.parametrize(
    "module_name, name",
    [("arith", "gen_bernoulli"), ("arith", "cohen_h"), ("pullback", "epsilon")],
)
def test_benchmark_caches_report(module_name, name):
    info = getattr(import_module(f"eiscong.{module_name}"), name).cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs every workload at tiny sizes against its
    goldens and once under the tracer, so a renamed binding or a changed
    output fails here and not only when the benchmark runs."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest ok"


# The layers the tracer reports one by one; it only wraps names in __all__.
@pytest.mark.parametrize(
    "module_name, name",
    [
        ("arith", "cohen_h"),
        ("arith", "factorize"),
        ("arith", "gen_bernoulli"),
        ("arith", "l_value_neg"),
        ("cli", "main"),
        ("pullback", "certify"),
        ("pullback", "epsilon"),
        ("qexp", "cohen_series"),
        ("qexp", "eigen_basis"),
        ("qexp", "miller_basis"),
        ("qexp", "petersson_ratio"),
        ("qexp", "std_l_value"),
        ("quadform", "enumerate_R"),
        ("siegelseries", "local_F"),
    ],
)
def test_traced_layers_stay_public(module_name, name):
    assert name in import_module(f"eiscong.{module_name}").__all__


def test_no_floating_point_in_the_package():
    """No float literal, float() call, or float64 / log / log2 attribute."""
    package = Path(import_module("eiscong").__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                (isinstance(node, ast.Constant) and isinstance(node.value, float))
                or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                )
                or (
                    isinstance(node, ast.Attribute)
                    and node.attr in {"float64", "log", "log2"}
                )
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports_in_src():
    """Every name a module imports is used in it or listed in its __all__,
    so a deletion leaves no import behind."""
    package = Path(import_module("eiscong").__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                not isinstance(node, ast.ImportFrom) or node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used | exported
        ]
    assert found == []


# Top-level names outside __all__ that no code in the package references,
# each with the binding outside the package that keeps it there.
UNREFERENCED_IN_SRC = {
    "quadform.canonical_signed_perm": "perfbench/tracer.py wraps it through EXTRA",
}


def test_every_private_helper_is_referenced_in_src():
    """Every top-level function, class and module constant outside its
    module's __all__, and every `_name` function or class at any depth, is
    referenced somewhere in the package: a name whose last caller went is
    deleted too, and a name only the tests reach lives in the tests."""
    package = Path(import_module("eiscong").__file__).parent
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, referenced = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = import_module("eiscong" if path.stem == "__init__" else f"eiscong.{path.stem}")
        exported = set(getattr(module, "__all__", ()))
        for node in tree.body:
            if isinstance(node, defs):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name not in exported and not name.startswith("__"):
                    defined[f"{path.stem}.{name}"] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, defs):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(f"{path.stem}.{node.name}", f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert defined, "no definitions found"
    unreferenced = {
        key: where for key, where in defined.items() if key.split(".", 1)[1] not in referenced
    }
    assert sorted(unreferenced) == sorted(UNREFERENCED_IN_SRC), unreferenced


def test_cached_functions_are_pinned():
    """The package's process-global caches, by module and function: each one
    saves repeated work on the benchmark or is read by it, so adding or
    dropping a cache is an edit here."""
    package = Path(import_module("eiscong").__file__).parent
    cached = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
                    if name in {"lru_cache", "cache"}:
                        cached.add(f"{path.stem}.{node.name}")
    assert cached == {
        "arith.cohen_h",
        "arith.gen_bernoulli",
        "eisen._local_factors",
        "eisen._untailed",
        "pullback._row_orbits",
        "pullback.epsilon",
        "qexp.cohen_series",
        "qexp.miller_basis",
        "siegelseries._level_table",
    }


def test_module_tables_written_by_functions_are_pinned():
    """Module-level names that a function writes, by rebinding them through
    `global` or by storing an item into them: table caches that the
    lru_cache pin above cannot see, so adding one is an edit here too."""
    package = Path(import_module("eiscong").__file__).parent
    written = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module_names = {
            target.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(func))
            declared = {n for node in nodes if isinstance(node, ast.Global) for n in node.names}
            stored = [node for node in nodes if isinstance(getattr(node, "ctx", None), ast.Store)]
            local = {node.id for node in stored if isinstance(node, ast.Name)} - declared
            for node in stored:
                if isinstance(node, ast.Name) and node.id in declared:
                    written.add(f"{path.stem}.{node.id}")
                elif (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in module_names - local
                ):
                    written.add(f"{path.stem}.{node.value.id}")
    assert written == {"arith._bernoulli_cache", "arith._power_sums", "cli._parser"}


def test_certificate_path_returns_fractions():
    """The AST check above cannot see an int / int true division, which
    gives a float; the certificate path's values must all be Fractions."""
    forms = [parse_half_integral(text) for text in ("1,0,1", "1,1,1")]
    for weight in (12, 16, 18, 20, 22, 26):
        full, _ = miller_basis(weight, default_precision(weight))
        assert all(type(c) is Fraction for row in full for c in row.coeffs), weight
        eigenform = eigen_basis(weight)[0]
        for k in range(6, weight - 1, 2):
            nu = weight - k
            assert type(gamma1(k, nu)) is Fraction, (k, nu)
            assert type(gamma2(k, nu)) is Fraction, (k, nu)
            assert type(std_l_value(k, nu, eigenform)) is Fraction, (k, nu)
            for quad in forms:
                assert all(type(c) is Fraction for c in epsilon(k, nu, 1, quad).coeffs)
