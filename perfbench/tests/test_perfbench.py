"""Tests of the benchmark harness itself (not of critfin).

    python3 -m pytest -q perfbench/tests

Run from the repository root; two tests start real critfin children.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import harness
import run
import tracer

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# output checks and failure counting
# ---------------------------------------------------------------------------


def _certificate(verdict="all-within-bound", paths=16, residual=1e-14):
    path = {"forward_residual": residual, "passages": [], "undecided": False}
    return json.dumps({"verdict": verdict, "bound": 2, "max_passages": 0, "paths": [path] * paths})


def test_golden_mismatch_is_counted_as_failed(monkeypatch, tmp_path):
    # every certify operation "succeeds" but reports another bound than its golden
    def fake_run_op(op, root, workdir, traced, timeout):
        sample = harness.Sample(op, traced, "ok", 1.0, 50.0, setup_s=0.5, solve_s=0.5, import_s=0.4)
        deg, dim = harness.fixture_shape(root, op.fixture)
        sample.stdout = _certificate(paths=deg ** (dim * op.depth))
        return sample

    goldens = {
        f"certify {fx} {point} {depth}": {"verdict": "all-within-bound", "bound": 3,
                                          "max_passages": 0, "paths": 2 ** (2 * depth)}
        for fx, depth in harness.CERTIFY_DEPTHS.items()
        for point in harness.ROOT_POOLS[harness.fixture_shape(ROOT, fx)[1]]
    }
    golden_file = tmp_path / "goldens.json"
    golden_file.write_text(json.dumps({"goldens": goldens}))
    monkeypatch.setattr(harness, "run_op", fake_run_op)
    monkeypatch.setattr(harness, "GOLDENS", golden_file)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "certify-backward", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["attempted"] == len(harness.CERTIFY_DEPTHS)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert "bound is 2, expected 3" in out.getvalue()


def test_matching_certificate_passes_and_invariants_bite():
    op = harness.certify_op("quadratic", "2,3")
    golden = {"verdict": "all-within-bound", "bound": 2, "max_passages": 0, "paths": 16}
    goldens = {op.golden_key: golden}
    assert checks.check(op, _certificate(), Path("."), goldens, 2, 1) is None
    assert "forward_residual" in checks.check(op, _certificate(residual=1e-3), Path("."), goldens, 2, 1)
    assert "deg^(k*depth)" in checks.check(op, _certificate(paths=15), Path("."), goldens, 2, 1)
    assert "violation" in checks.check(op, _certificate("violation"), Path("."), goldens, 2, 1)


KNOWN_DEFECTS = json.loads(harness.GOLDENS.read_text(encoding="utf-8"))["invariant_failures"]


def test_timed_certify_passes_leave_out_known_defects():
    key = "certify power 3,8,3 4"
    workload = harness.Workload("certify-backward", 0, ROOT, {key})
    drawn = {op.golden_key for p in range(harness.ROOT_POOL_SIZE) for op in workload.ops(p)}
    assert key not in drawn
    assert sum(k.startswith("certify power ") for k in drawn) == harness.ROOT_POOL_SIZE - 1


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.xfail(strict=True, reason=f"known defect: {problem}"))
    for key, problem in KNOWN_DEFECTS.items()
])
def test_known_defect_meets_its_invariants(key, tmp_path):
    # fails while the program's defect stands; once it passes, re-record
    # goldens.json so the root returns to the timed certify passes
    _, fixture, point, _ = key.split()
    op = harness.certify_op(fixture, point)
    sample = harness.run_op(op, ROOT, tmp_path, traced=False, timeout=harness.OP_TIMEOUT_S)
    assert sample.ok, sample.status
    degree, dimension = harness.fixture_shape(ROOT, fixture)
    assert checks.certify_invariants(sample.stdout, degree, dimension, op.depth) is None


def test_analyze_points_match_within_cluster_tol_and_exactly():
    exact = {"period": 1, "classification": "other", "exact": True, "coords": ["1", "2"]}
    floating = {"period": 2, "classification": "other", "exact": False,
                "coords": [[1.0, 0.0], [0.5, 0.25]]}
    golden = {"lines": ["a: true"], "points": [exact, floating], "cluster_tol": 1e-8}
    moved = dict(floating, coords=[[1.0, 0.0], [0.5 + 1e-12, 0.25]])
    scaled = dict(exact, coords=["2", "4"])
    assert checks.compare_analyze(golden, dict(golden, points=[moved, scaled])) is None
    far = dict(floating, coords=[[1.0, 0.0], [0.5 + 1e-6, 0.25]])
    assert checks.compare_analyze(golden, dict(golden, points=[exact, far])) is not None
    other = dict(exact, coords=["1", "3"])
    assert checks.compare_analyze(golden, dict(golden, points=[other, floating])) is not None
    assert checks.compare_analyze(golden, dict(golden, lines=["a: false"])) is not None


def test_end_to_end_times_are_scaled_by_the_run_calibration():
    op = harness.analyze_op("f")
    samples = []
    for wall, cal in ((2.0, 0.2), (3.0, 0.3), (4.0, 0.4)):
        sample = harness.Sample(op, False, "ok", wall, 70.0, setup_s=wall / 4, solve_s=wall / 2)
        sample.calibrations = [cal]
        samples.append(sample)
    metrics = run.end_to_end(samples)
    scale = harness.REF_CALIBRATION_S / 0.3
    assert metrics["wall_s"] == pytest.approx(3.0 * scale)
    assert metrics["solve_s"] == pytest.approx(1.5 * scale)
    assert metrics["setup_s"] == pytest.approx(0.75 * scale)
    assert metrics["peak_rss_mb"] == 70.0
    for sample in samples:
        sample.op = harness.render_op("f", "512x512")
    metrics = run.end_to_end(samples)
    assert metrics["solve_s"] == pytest.approx(1.5)  # array work is not scaled
    assert metrics["wall_s"] == pytest.approx(1.5 * scale + 1.5)


# ---------------------------------------------------------------------------
# timeouts
# ---------------------------------------------------------------------------


def test_timed_out_child_is_killed_and_reaped():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                            start_new_session=True)
    started = time.monotonic()
    code, usage, timed_out = harness.wait_child(proc, 0.5)
    assert timed_out
    assert time.monotonic() - started < 10
    assert code < 0 and proc.returncode == code  # killed by a signal, and reaped
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert usage.ru_maxrss > 0


def test_hanging_operation_is_counted_as_timeout(tmp_path):
    # analyze on g3 does not finish at this commit's solver
    sample = harness.run_op(harness.analyze_op("g3"), ROOT, tmp_path, traced=False, timeout=3.0)
    assert sample.status == "timeout"
    assert not sample.ok
    assert sample.wall_s < 20


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_self_time_is_never_negative():
    rng = random.Random(7)
    for _ in range(50):
        now = [0]

        def clock():
            # monotone, as perf_counter_ns is, with repeated readings
            now[0] += rng.randint(0, 5)
            return now[0]

        rec = tracer.Recorder(clock=clock)
        open_spans = []
        for _ in range(200):
            if open_spans and rng.random() < 0.5:
                rec.close(open_spans.pop())
            else:
                open_spans.append(rec.open(rng.choice("abc")))
        while open_spans:
            rec.close(open_spans.pop())
        summary = rec.summary()["layers"]
        for entry in summary.values():
            assert entry["self_s"] >= 0
            assert entry["s"] >= 0
        total = sum(entry["self_s"] for entry in summary.values())
        outermost = sum(span[3] - span[2] for span in rec.spans if span[1] == -1)
        assert total == pytest.approx(outermost / 1e9)


def test_reentrant_span_counts_inclusive_time_once():
    times = iter([0, 10, 30, 40])
    rec = tracer.Recorder(clock=lambda: next(times))
    outer = rec.open("a")
    inner = rec.open("a")
    rec.close(inner)
    rec.close(outer)
    entry = rec.summary()["layers"]["a"]
    assert entry["calls"] == 2
    assert entry["s"] == pytest.approx(40e-9)
    assert entry["self_s"] == pytest.approx(40e-9)


def _fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def square(x, *, offset=0):
        return [x * x + offset]

    low.square = square
    high.square = square  # imported by name, as ``from .low import square``
    high.twice = lambda x: high.square(x) + high.square(x)
    pkg.square = square
    for module in (pkg, low, high):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return pkg, low, high, square


def test_wrapping_leaves_return_value_unchanged_and_rebinds_every_name(monkeypatch):
    pkg, low, high, square = _fake_package(monkeypatch)
    expected = high.twice(3)
    rec = tracer.Recorder()
    rebound = tracer.install(rec, targets={"fakepkg.low": ("square",)}, prefix="fakepkg.")
    assert rebound == 3
    assert low.square is not square and high.square is low.square and pkg.square is low.square
    assert high.twice(3) == expected
    assert low.square(4, offset=1) == square(4, offset=1)
    assert low.square.__wrapped__ is square
    assert rec.summary()["layers"]["low.square"]["calls"] == 3


def test_traced_child_output_equals_untraced(tmp_path):
    op = harness.certify_op("quadratic", harness.ROOT_POOLS[1][0])
    plain = harness.run_op(op, ROOT, tmp_path, traced=False, timeout=60)
    traced = harness.run_op(op, ROOT, tmp_path, traced=True, timeout=60)
    assert plain.ok and traced.ok
    assert traced.stdout == plain.stdout
    layers = traced.trace["layers"]
    assert layers["ramification.preimage_tree"]["calls"] == 1
    assert layers["postcritical.classify"]["calls"] >= 1
    assert plain.trace is None
