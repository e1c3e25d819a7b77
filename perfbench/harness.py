"""Operations, workloads and the child process that runs each operation.

Every operation is one ``critfin`` CLI invocation in a fresh interpreter, as
a user pays it: interpreter start, ``import critfin`` and cold sympy caches.
The child is ``child.py``, which reports when the import ended and when the
command ended, so the parent can split wall time into set-up and solve time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
GOLDENS = HERE / "goldens.json"

#: children get one BLAS thread: the machine has few cores and spare BLAS
#: threads only add contention noise to a single-client benchmark
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1"}

#: a child still running after this long is killed and counted as failed
OP_TIMEOUT_S = 60.0

#: median of ``calibrate()`` on the reference machine (2 vCPUs, Python 3.11.7)
REF_CALIBRATION_S = 0.138
#: one calibration per this many seconds an operation slot takes, so that a
#: run of a few long renders has as many calibrations as a run of many short
#: certify operations, and each stretch of the run weighs by its length
CALIBRATION_EVERY_S = 1.0

ANALYZE_FIXTURES = ("f", "power", "quadratic", "lattes4")
#: backward-tree depth per fixture: the cap (4) where a pass stays short,
#: 2 on the degree-3 and degree-4 plane maps whose trees grow fastest
CERTIFY_DEPTHS = {"f": 4, "power": 4, "quadratic": 4, "lattes4": 4, "g3": 2, "g4": 2}
#: (fixture, resolution); iterations stay at the CLI default of 500
RENDERS = (("f", "512x512"), ("lattes4", "128x128"))
#: root points drawn for certify-ramification, per dimension
ROOT_POOL_SIZE = 16


def _root_pool(dim: int) -> tuple[str, ...]:
    """Primitive integer points with coordinates 1..9, in a fixed order.

    The pool is fixed before any point is run; no point is dropped for what
    the program does with it, except that ``Workload`` leaves recorded known
    defects out of the timed passes.
    """
    rng = random.Random(f"critfin-roots-P{dim}")
    pool: list[str] = []
    while len(pool) < ROOT_POOL_SIZE:
        coords = [rng.randint(1, 9) for _ in range(dim + 1)]
        text = ",".join(map(str, coords))
        if gcd(*coords) == 1 and text not in pool:
            pool.append(text)
    return tuple(pool)


ROOT_POOLS = {1: _root_pool(1), 2: _root_pool(2)}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``key`` names its slot in a workload's sequence."""

    kind: str  # "analyze" | "certify" | "render"
    fixture: str
    key: str
    point: str | None = None
    depth: int | None = None
    res: str | None = None

    @property
    def array_bound(self) -> bool:
        """Whether the solve time is numpy array work (the render kernel).

        The calibration child times interpreter work.  Array work does not
        drift with it: over seven 40-s render runs on the 2-vCPU reference
        machine the calibration's median ranged over 25% while the renders'
        raw solve time ranged over 13%, and scaling by it widened that to 28%.
        """
        return self.kind == "render"

    @property
    def slug(self) -> str:
        return "-".join([self.kind, self.fixture] + ([self.res] if self.res else []))

    def outputs(self, workdir: Path) -> dict[str, Path]:
        if self.kind == "analyze":
            return {"report": workdir / f"{self.slug}.report.json"}
        if self.kind == "render":
            return {"ppm": workdir / f"{self.slug}.ppm", "legend": workdir / f"{self.slug}.json"}
        return {}

    def argv(self, workdir: Path) -> list[str]:
        out = self.outputs(workdir)
        if self.kind == "analyze":
            return ["analyze", self.fixture, "--report", str(out["report"])]
        if self.kind == "render":
            return ["render", self.fixture, "--res", self.res, "--out", str(out["ppm"])]
        return ["certify-ramification", self.fixture, "--point", self.point, "--depth", str(self.depth)]

    @property
    def golden_key(self) -> str:
        if self.kind == "certify":
            return f"certify {self.fixture} {self.point} {self.depth}"
        if self.kind == "render":
            return f"render {self.fixture} {self.res}"
        return f"analyze {self.fixture}"


def analyze_op(fixture: str) -> Op:
    return Op("analyze", fixture, f"analyze {fixture}")


def certify_op(fixture: str, point: str) -> Op:
    return Op("certify", fixture, f"certify {fixture}", point=point, depth=CERTIFY_DEPTHS[fixture])


def render_op(fixture: str, res: str) -> Op:
    return Op("render", fixture, f"render {fixture} {res}", res=res)


@functools.lru_cache(maxsize=None)
def fixture_shape(root: Path, fixture: str) -> tuple[int, int]:
    """(degree, dimension) of a bundled fixture, read from its map file."""
    doc = json.loads((root / "src" / "critfin" / "fixtures" / f"{fixture}.json").read_text())
    return int(doc["degree"]), int(doc["dimension"])


class Workload:
    """A seeded sequence of operations, repeated pass after pass.

    The seed fixes the order of the operations in every pass and, for
    ``certify-backward``, which pool root each fixture gets in each pass:
    the pool is shuffled once per fixture and pass ``p`` takes entry ``p``.

    ``known_defects`` names operations (by golden key) whose output at the
    goldens' commit breaks a certificate invariant.  They stay in the pool
    that ``goldens.py`` records, but a timed workload must be one on which no
    operation fails, so certify passes leave them out; every run prints them
    and ``tests/test_perfbench.py`` re-runs each one as an expected failure.
    """

    def __init__(self, name: str, seed: int, root: Path, known_defects=frozenset()):
        self.name = name
        self.seed = seed
        self.root = root
        self.known_defects = frozenset(known_defects)
        self._orders: dict[str, list[str]] = {}

    def ops(self, pass_index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}")
        if self.name == "analyze-fixtures":
            ops = [analyze_op(fx) for fx in ANALYZE_FIXTURES]
        elif self.name == "render-basins":
            ops = [render_op(fx, res) for fx, res in RENDERS]
        else:
            ops = [
                certify_op(fx, self._root_order(fx)[pass_index % len(self._root_order(fx))])
                for fx in CERTIFY_DEPTHS
            ]
        rng.shuffle(ops)
        return ops

    def _root_order(self, fixture: str) -> list[str]:
        if fixture not in self._orders:
            pool = [
                point for point in ROOT_POOLS[fixture_shape(self.root, fixture)[1]]
                if certify_op(fixture, point).golden_key not in self.known_defects
            ]
            random.Random(f"{self.name}:{self.seed}:{fixture}").shuffle(pool)
            self._orders[fixture] = pool
        return self._orders[fixture]


WORKLOADS = ("analyze-fixtures", "certify-backward", "render-basins")


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


#: standard-library modules the calibration child imports
CALIBRATION_IMPORTS = (
    "json, decimal, fractions, email.mime.multipart, http.client, xml.dom.minidom, unittest"
)


def calibrate() -> float:
    """Wall time of a child interpreter importing a fixed set of stdlib modules.

    On a shared machine the speed of one core drifts by a third within
    minutes.  Starting an interpreter and importing modules drifts the way
    critfin's own start-up and sympy work do, and it runs no critfin code,
    so a run's median calibration measures the machine, not the program.
    """
    start = time.monotonic()
    subprocess.run(
        [sys.executable, "-I", "-c", f"import {CALIBRATION_IMPORTS}"],
        check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return time.monotonic() - start


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """Outcome of one operation.  Times are seconds; ``None`` when unknown."""

    op: Op
    traced: bool
    status: str  # "ok", "exit N", "timeout", "no result" or "mismatch"
    wall_s: float
    rss_mb: float
    setup_s: float | None = None
    solve_s: float | None = None
    import_s: float | None = None
    calibrations: list[float] = field(default_factory=list)
    trace: dict | None = None
    detail: str = ""
    stdout: str = field(default="", repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_PIN)
    return env


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, object, bool]:
    """Reap ``proc`` within ``timeout`` seconds, killing its group if late.

    Returns (exit code, the child's own rusage, timed out).  The rusage comes
    from ``wait4`` on this child alone, never from the process-wide
    ``RUSAGE_CHILDREN`` total.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        timed_out = not poller.poll(max(0.0, timeout) * 1000.0)
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def run_op(op: Op, root: Path, workdir: Path, traced: bool, timeout: float) -> Sample:
    """Run one operation in a fresh child and time it; outputs are not checked."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / f"{op.slug}.result.json"
    for path in [result_path, *op.outputs(workdir).values()]:
        path.unlink(missing_ok=True)
    stdout_path = workdir / f"{op.slug}.stdout"
    stderr_path = workdir / f"{op.slug}.stderr"
    argv = [sys.executable, str(CHILD), str(result_path), "1" if traced else "0", *op.argv(workdir)]
    env = child_env(root)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
            cwd=root, start_new_session=True,
        )
        code, usage, timed_out = wait_child(proc, timeout)
        t_exit = time.monotonic()
    sample = Sample(op, traced, "ok", t_exit - t_spawn, usage.ru_maxrss / 1024.0)
    sample.stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    if timed_out:
        sample.status = "timeout"
        return sample
    if code != 0:
        sample.status = f"exit {code}"
        sample.detail = stderr_path.read_text(encoding="utf-8", errors="replace")[-500:]
        return sample
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sample.status, sample.detail = "no result", repr(exc)
        return sample
    sample.setup_s = result["imported"] - t_spawn
    sample.solve_s = result["done"] - result["imported"]
    sample.import_s = result["imported"] - result["start"]
    sample.trace = result.get("trace")
    return sample


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    pkg = root / "src" / "critfin"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "commit": _commit(root),
        "src_sha256": source_digest(root),
        "seed": seed,
        "blas_threads": BLAS_PIN,
    }
