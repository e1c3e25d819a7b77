"""Peak RSS after each stage of one ``critfin render``, in a fresh interpreter.

    python3 tests/stage_peak.py [RES]

Runs ``critfin render f --res RESxRES`` (RES is 512 by default) through
``critfin.cli.main`` in a child interpreter that imports this checkout's
``src`` and writes no bytecode cache, as the benchmark's children do.  It
prints one line per stage, in order: the import of ``critfin.cli``, then
``build_targets``, ``render_slice`` and ``write_ppm``.  Each line gives the
stage, then ``ru_maxrss`` in kB once the stage has returned: the child's
own, then the largest of the render workers it has reaped (0 before any).
The stage whose own figure first reaches the last line's sets the child's
peak; a worker figure above it sets the peak that ``wait4`` reports.
"""

import os
import subprocess
import sys
from pathlib import Path

_CHILD = """
import contextlib, os, resource, sys, tempfile

def peaks():
    return [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

import critfin.cli as cli

stages = [("import", peaks())]

def staged(fn):
    def run(*args, **kwargs):
        out = fn(*args, **kwargs)
        stages.append((fn.__name__, peaks()))
        return out
    return run

for name in ("build_targets", "render_slice", "write_ppm"):
    setattr(cli, name, staged(getattr(cli, name)))
res = sys.argv[1]
with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
    with contextlib.redirect_stdout(sink):
        code = cli.main(["render", "f", "--res", f"{res}x{res}", "--out", tmp + "/f.ppm"])
for name, (own, workers) in stages:
    print(name, own, workers)
sys.exit(code)
"""


def main(argv: list[str]) -> int:
    res = argv[0] if argv else "512"
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",  # as the benchmark's children run
    }
    done = subprocess.run([sys.executable, "-c", _CHILD, res], env=env, timeout=300)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
