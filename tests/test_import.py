"""What importing critfin does to the host's garbage collector."""


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
