"""Peak RSS after each critfin module compiles, in a fresh interpreter.

    python3 tests/compile_peak.py

A CLI call that writes no bytecode cache (``PYTHONDONTWRITEBYTECODE=1``)
compiles every critfin module from source while it imports ``critfin.cli``,
and the largest compile on top of the numpy heap can set the call's peak RSS.
This script imports ``critfin.cli`` from this checkout's ``src`` in such an
interpreter, compiling each critfin module from source even where a cache
exists, while numpy, sympy and the standard library load as they would.  It
prints one line per module in compile order: the module, then
``ru_maxrss`` in kB right before and right after its compile.  A module
whose compile raises the peak to the last line's value set the import peak.
"""

import os
import subprocess
import sys
from pathlib import Path

_CHILD = """
import importlib.machinery, resource

get_code = importlib.machinery.SourceFileLoader.get_code

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def compiled(self, fullname):
    if fullname.split(".")[0] != "critfin":
        return get_code(self, fullname)
    before = peak()
    path = self.get_filename(fullname)
    code = self.source_to_code(self.get_data(path), path)
    print(fullname, before, peak(), flush=True)
    return code

importlib.machinery.SourceFileLoader.get_code = compiled
import critfin.cli
"""


def main() -> int:
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",  # as the benchmark's children run
    }
    return subprocess.run([sys.executable, "-c", _CHILD], env=env, timeout=120).returncode


if __name__ == "__main__":
    sys.exit(main())
