"""Tests of the package metadata in pyproject.toml and of the source tree."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_script_entry_points_resolve():
    # an installed console script imports its target on start; a target
    # that does not exist fails only then
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name}: {target} is not callable"


def _referenced_names(paths) -> set:
    """Identifiers used (read, written, called, an attribute or imported)
    anywhere in the files; definitions do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _definitions(tree):
    """(qualified name, name) of the module-level functions and classes,
    and of the non-dunder methods and properties of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def test_every_module_level_definition_is_referenced():
    # a module-level function or class, or a method or property of such a
    # class, that nothing in src/ or tests/ names is dead code
    modules = sorted((ROOT / "src" / "w3toda").glob("*.py"))
    refs = _referenced_names(modules + sorted((ROOT / "tests").glob("*.py")))
    unreferenced = [
        f"{path.name}: {qualified}"
        for path in modules
        for qualified, name in _definitions(ast.parse(path.read_text()))
        if name not in refs]
    assert unreferenced == []


def test_only_the_kernel_defines_json_helpers():
    # algebra_core's encode/decode are the one JSON form of exact values;
    # elsewhere in src/ a *_json function may only be a record's to_json or
    # from_json method
    found = []
    for path in sorted((ROOT / "src" / "w3toda").glob("*.py")):
        if path.name == "algebra_core.py":
            continue
        tree = ast.parse(path.read_text())
        methods = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        found += [
            f"{path.name}: {node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.endswith("_json")
            and not (id(node) in methods
                     and node.name in ("to_json", "from_json"))]
    assert found == []


def test_benchmark_tracer_wraps_existing_attributes():
    # bench/tracing.py wraps package functions by attribute name; one that
    # a refactor renamed would leave its per-layer metrics silently at zero
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(name, owner, attr) for name, owner, attr in tracing.SPANS]
    wrapped += [(name, owner, attr)
                for name, owner, attr, _ in tracing.COUNTERS]
    attrs = {attr for _, _, attr in wrapped}
    assert {"__init__", "poly_gcd", "poly_divmod", "poly_mul", "vec_factor",
            "miura_w_form"} <= attrs
    missing = [name for name, owner, attr in wrapped
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_benchmark_patch_markers_are_in_hyp_numeric():
    # bench/tests/test_bench.py breaks a copy of hyp_numeric.py by replacing
    # literal lines (its ``marker`` strings); a refactor that rewrote one of
    # them would fail those tests, which run outside this suite
    tree = ast.parse((ROOT / "bench" / "tests" / "test_bench.py").read_text())
    markers = [node.value.value for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["marker"]
               and isinstance(node.value, ast.Constant)]
    assert len(markers) == 2
    source = (ROOT / "src" / "w3toda" / "hyp_numeric.py").read_text()
    assert [m for m in markers if m not in source] == []


def test_private_constructors_stay_in_the_kernel():
    # RatFunc._canonical and CFrac._canonical skip the public constructors'
    # checks and coercions; only the kernel's own arithmetic, on values it
    # already made canonical, may call them
    from w3toda import algebra_core
    private = "_canonical"
    assert callable(getattr(algebra_core.RatFunc, private))
    assert callable(getattr(algebra_core.CFrac, private))
    paths = [p for pattern in ("src/w3toda/*.py", "tests/*.py", "bench/**/*.py")
             for p in sorted(ROOT.glob(pattern))]
    outside = sorted(
        str(path.relative_to(ROOT)) for path in paths
        if path.name != "algebra_core.py"
        and private in _referenced_names([path]))
    assert outside == []


def test_no_numeric_path_loads_scipy_integrate():
    # importing every module and running the four hypergeometric numerics
    # loads none of scipy.integrate, the scipy.optimize it pulls in, or
    # scipy.sparse (together about 18 MB in every process)
    code = textwrap.dedent("""
        import importlib, math, pkgutil, sys
        from fractions import Fraction as F
        import w3toda
        for info in pkgutil.iter_modules(w3toda.__path__):
            importlib.import_module("w3toda." + info.name)
        from w3toda.hyp_numeric import (
            hyp_grid, ode_integrate, paper_integrals, series_derivatives)
        from w3toda.ward_bpz import HypergeometricSpec
        assert len(paper_integrals(0.8)) == 3
        spec = HypergeometricSpec(
            "bulk_boundary", F(1), (F(3, 10), F(-7, 10), F(6, 5)),
            (F(3, 5), F(7, 5)), (("i", F(0)),), "u")
        y0 = series_derivatives(spec, 0, 0.5, orders=2)
        assert len(ode_integrate(spec, 0.5, y0, 0.85)) == 3
        assert len(ode_integrate(spec, 1.5, (1.0, 0.0, 0.0), 2.5)) == 3
        assert len(hyp_grid(spec, 0.05, 0.5, 0.05)) == 10
        loaded = [m for m in ("scipy.integrate", "scipy.optimize",
                              "scipy.sparse") if m in sys.modules]
        assert loaded == [], loaded
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_only_with_the_first_gmc_call():
    # the exact layers load neither numpy nor scipy; every module together,
    # with the hypergeometric numerics run, loads no scipy and no
    # concurrent.futures (gmc_mc imports its BLAS, LAPACK, exp1 and its
    # sampling pool inside the functions that use them, and scipy is about
    # 110 modules and 30 MB); a GMC estimate then loads both
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        from fractions import Fraction as F

        def loaded(*prefixes):
            return sorted(m for m in sys.modules
                          if m.split(".")[0] in prefixes)

        import w3toda
        for name in ("algebra_core", "descendant_forms", "free_field",
                     "singular_vectors", "ward_bpz"):
            importlib.import_module("w3toda." + name)
        assert loaded("numpy", "scipy") == [], loaded("numpy", "scipy")

        for info in pkgutil.iter_modules(w3toda.__path__):
            importlib.import_module("w3toda." + info.name)
        from w3toda.hyp_numeric import (
            hyp_grid, ode_integrate, paper_integrals, series_derivatives)
        from w3toda.ward_bpz import HypergeometricSpec
        assert len(paper_integrals(0.8)) == 3
        spec = HypergeometricSpec(
            "bulk_boundary", F(1), (F(3, 10), F(-7, 10), F(6, 5)),
            (F(3, 5), F(7, 5)), (("i", F(0)),), "u")
        y0 = series_derivatives(spec, 0, 0.5, orders=2)
        assert len(ode_integrate(spec, 0.5, y0, 0.85)) == 3
        assert len(hyp_grid(spec, 0.05, 0.5, 0.05)) == 10
        assert loaded("scipy", "concurrent") == [], \
            loaded("scipy", "concurrent")

        from w3toda.free_field import CorrelatorConfig
        from w3toda.gmc_mc import estimate_correlator
        a, b2, b3 = (F(k, 10) * F(33, 10) for k in (6, 2, 3))
        cfg = CorrelatorConfig(
            F(4, 5),
            bulk=(((F(3, 10), F(1, 2)), (a, a)),
                  ((F(-1, 4), F(9, 20)), (a, a))),
            boundary=((F(-1, 2), (b2, b2)), (F(2, 5), (b3, b3))),
            mu_bulk=(F(1, 2), F(7, 10)),
            mu_boundary=((F(3, 10), F(1, 5)), (F(1, 10), F(2, 5))))
        est = estimate_correlator(cfg, 0.12, 0.1, 0.03, 4, seed=5)
        assert est.replicas == 4 and est.value > 0
        assert "scipy.linalg" in sys.modules
        assert "concurrent.futures" in sys.modules
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_source_module_imports_scipy_integrate():
    found = []
    for path in sorted((ROOT / "src" / "w3toda").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.integrate" or n.startswith("scipy.integrate.")
                   for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
