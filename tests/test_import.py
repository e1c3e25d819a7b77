"""What importing critfin does to the host's garbage collector, and what it imports."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import critfin


def test_import_freezes_the_heap_and_leaves_the_collector_on(run_python):
    done = run_python("import gc, critfin; print(gc.isenabled(), gc.get_freeze_count())")
    assert done.returncode == 0, done.stderr.decode()
    enabled, frozen = done.stdout.split()
    assert enabled == b"True"
    # the sympy and numpy module heap, not a handful of objects
    assert int(frozen) > 10_000


def test_import_keeps_a_disabled_collector_disabled(run_python):
    done = run_python("import gc; gc.disable(); import critfin; print(gc.isenabled())")
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.strip() == b"False"


def test_src_reaches_sympy_only_through_sympy_polys():
    # forms cross into sympy through the polys rings of critfin.algebra alone;
    # an expression-level import (sympy, sympy.core, ...) would bring a second
    # bridge back
    sources = sorted(Path(critfin.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    imported = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    sympy = [(name, mod) for name, mod in imported if mod == "sympy" or mod.startswith("sympy.")]
    assert {name for name, _ in sympy} >= {"algebra.py", "geometry.py"}
    assert [(name, mod) for name, mod in sympy if not (mod + ".").startswith("sympy.polys.")] == []
    # geometry reads a fiber's root off a gcd or a subresultant: it factors
    # no fiber, and keeps no bit-for-bit replay of floating iterates
    geometry = {mod for name, mod in imported if name == "geometry.py"}
    assert "sympy.polys.factortools" not in geometry and "struct" not in geometry


def test_algebra_imports_numpy_only_where_it_proposes_roots():
    # measured on `critfin analyze f` and `analyze power` (2 vCPUs, Python
    # 3.11, numpy 2.4), median peak RSS of five runs: a module-level
    # `import numpy` in algebra.py raised it by 0.5 MB in every child,
    # although geometry imports numpy too.  So algebra imports it inside the
    # one function that calls np.roots.  The modular determinant that proves
    # a morphism works in Python ints and stays numpy-free as well.
    path = Path(critfin.__file__).parent / "algebra.py"
    module = ast.parse(path.read_text(encoding="utf-8"), str(path))

    def numpy_imports(tree) -> list:
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                found.append(node.module)
        return found

    assert len(numpy_imports(module)) == 1
    functions = [n for n in ast.walk(module) if isinstance(n, ast.FunctionDef)]
    assert [fn.name for fn in functions if numpy_imports(fn)] == ["_split_low_degree"]


def test_candidate_roots_take_complex_coefficients(monkeypatch):
    # real coefficients send np.roots to LAPACK's dgeev, complex ones to the
    # zgeev the geometry layer loads anyway; loading dgeev as well raised the
    # same children's peak RSS by 0.5 MB
    import numpy as np

    from critfin.algebra import factor, poly_parse

    dtypes = []
    roots = np.roots

    def record(coeffs):
        dtypes.append(np.asarray(coeffs).dtype)
        return roots(coeffs)

    monkeypatch.setattr(np, "roots", record)
    p = poly_parse("(z - w)*(2*z + 3*w)*(z^2 - 2*w^2)*(z^2 + w^2)*(z^3 - 5*w^3)", 2)
    assert factor(p).reassemble() == p
    assert dtypes and all(dt.kind == "c" for dt in dtypes)


def test_traced_benchmark_targets_still_resolve():
    # the benchmark's tracer wraps these functions by name in every traced
    # child; a renamed or deleted one would make its install fail
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, name) for module, names in tracer.TARGETS.items() for name in names]
    assert len(names) == 16
    for module, name in names:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_the_tracer_installs_on_a_fresh_cli_import(run_python):
    # a traced child imports critfin.cli alone before ``install``, which
    # reads every target module from sys.modules: a target module that cli
    # imported lazily would be missing there, unlike in the test above
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    script = f"""
import importlib.util, sys
import critfin.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(path)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
rebound = tracer.install(tracer.Recorder())
targets = [(module, name) for module, names in tracer.TARGETS.items() for name in names]
print(rebound, len(targets))
for module, name in targets:
    if not hasattr(getattr(sys.modules[module], name), "__wrapped__"):
        print(module, name)
"""
    done = run_python(script)
    assert done.returncode == 0, done.stderr.decode()
    counts, *unwrapped = done.stdout.decode().splitlines()
    rebound, targets = map(int, counts.split())
    assert targets and not unwrapped and rebound >= targets, (counts, unwrapped)


def test_the_compile_peak_probe_lists_every_module():
    # a helper run by hand (see the README's Tests section); this only checks
    # that it still runs on the checkout, and asserts no RSS
    probe = Path(__file__).with_name("compile_peak.py")
    done = subprocess.run([sys.executable, str(probe)], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    lines = [line.split() for line in done.stdout.decode().splitlines()]
    package = Path(critfin.__file__).parent
    modules = {"critfin"} | {f"critfin.{p.stem}" for p in package.glob("*.py")} - {
        "critfin.__init__",
        "critfin.__main__",
    }
    assert {line[0] for line in lines} == modules
    assert all(len(line) == 3 and int(line[1]) <= int(line[2]) for line in lines)
