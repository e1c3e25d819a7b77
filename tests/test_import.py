"""What importing critfin does to the host's garbage collector, and what it imports."""

import ast
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
