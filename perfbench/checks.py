"""Output checks: every operation's output against goldens and invariants.

Goldens were recorded from the program's outputs by ``goldens.py``.  What is
compared is what a user relies on, at the precision the program promises:

* ``analyze``: every verdict line exactly; each periodic point's period and
  classification; exact points exactly; floating points within the
  ``cluster_tol`` the report echoes (a golden floating point may also be met
  by an exact point, never the other way round).
* ``certify-ramification``: verdict, bound, ``max_passages`` and path count,
  plus invariants that hold for every root: no ``violation``, every
  ``forward_residual`` below ``residual_tol``, and the backward paths
  weighted by multiplicity number deg^(k*depth).
* ``render``: SHA-256 of the PPM and the legend sidecar's per-label summary.

Each check returns ``None`` when the output passes, or a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

#: critfin's default ``Config.residual_tol``; certificates do not echo it
RESIDUAL_TOL = 1e-10


# ---------------------------------------------------------------------------
# summaries: the parts of an output that goldens record
# ---------------------------------------------------------------------------


def analyze_summary(stdout: str, report_path: Path) -> dict:
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    lines = [ln for ln in stdout.splitlines() if ln.strip() and not ln.startswith("  ")]
    points = [
        {
            "period": pp["period"],
            "classification": pp["classification"],
            "exact": pp["point"]["exact"],
            "coords": pp["point"]["coords"],
        }
        for pp in report["periodic_points"]
    ]
    return {"lines": lines, "points": points, "cluster_tol": report["config"]["cluster_tol"]}


def certify_summary(stdout: str) -> dict:
    cert = json.loads(stdout)
    return {
        "verdict": cert["verdict"],
        "bound": cert["bound"],
        "max_passages": cert["max_passages"],
        "paths": len(cert["paths"]),
    }


def render_summary(ppm_path: Path, legend_path: Path) -> dict:
    legend = json.loads(Path(legend_path).read_text(encoding="utf-8"))
    labels = sorted(legend["legend"], key=int)
    return {
        "ppm_sha256": hashlib.sha256(Path(ppm_path).read_bytes()).hexdigest(),
        "summary": [legend["summary"][legend["legend"][label]] for label in labels],
    }


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _chordal(p: list[complex], q: list[complex]) -> float:
    wedge = sum(
        abs(p[i] * q[j] - p[j] * q[i]) ** 2
        for i in range(len(p))
        for j in range(i + 1, len(p))
    )
    norm = sum(abs(c) ** 2 for c in p) * sum(abs(c) ** 2 for c in q)
    return (wedge / norm) ** 0.5


def _complex_coords(point: dict) -> list[complex]:
    if point["exact"]:
        return [complex(float(Fraction(c))) for c in point["coords"]]
    return [complex(re, im) for re, im in point["coords"]]


def _same_exact(a: list[str], b: list[str]) -> bool:
    """Equal as projective points: a_i * b_j == a_j * b_i for all i, j."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    return len(fa) == len(fb) and all(
        fa[i] * fb[j] == fa[j] * fb[i] for i in range(len(fa)) for j in range(len(fa))
    )


def _point_matches(golden: dict, got: dict, tol: float) -> bool:
    if golden["period"] != got["period"] or golden["classification"] != got["classification"]:
        return False
    if golden["exact"]:
        return got["exact"] and _same_exact(golden["coords"], got["coords"])
    return _chordal(_complex_coords(golden), _complex_coords(got)) <= tol


def compare_analyze(golden: dict, got: dict) -> str | None:
    if got["lines"] != golden["lines"]:
        return f"verdict lines differ: {got['lines']} != {golden['lines']}"
    if len(got["points"]) != len(golden["points"]):
        return f"{len(got['points'])} periodic points, expected {len(golden['points'])}"
    unmatched = list(got["points"])
    for point in golden["points"]:
        match = next(
            (i for i, q in enumerate(unmatched) if _point_matches(point, q, golden["cluster_tol"])),
            None,
        )
        if match is None:
            return f"no output point matches golden {point}"
        unmatched.pop(match)
    return None


def compare_exact(golden: dict, got: dict, what: str) -> str | None:
    for key, value in golden.items():
        if got.get(key) != value:
            return f"{what} {key} is {got.get(key)!r}, expected {value!r}"
    return None


def certify_invariants(stdout: str, degree: int, dimension: int, depth: int) -> str | None:
    """Invariants of a certificate that hold whatever the root."""
    cert = json.loads(stdout)
    if cert["verdict"] == "violation":
        return "verdict is violation"
    for path in cert["paths"]:
        if not path["forward_residual"] < RESIDUAL_TOL:
            return f"forward_residual {path['forward_residual']} >= {RESIDUAL_TOL}"
    if cert["verdict"] != "all-within-bound":
        return None  # not-applicable and undecided certificates list no full path set
    sheets = degree ** (dimension * depth)
    # a node of multiplicity > 1 is a critical point, which the audit counts
    # as a passage or leaves undecided; with neither anywhere every weight is 1
    if any(path["passages"] or path["undecided"] for path in cert["paths"]):
        if len(cert["paths"]) > sheets:
            return f"{len(cert['paths'])} paths exceed deg^(k*depth) = {sheets}"
    elif len(cert["paths"]) != sheets:
        return f"{len(cert['paths'])} paths, expected deg^(k*depth) = {sheets}"
    return None


# ---------------------------------------------------------------------------
# per operation
# ---------------------------------------------------------------------------


def summarize(op, stdout: str, workdir: Path) -> dict:
    """The golden-comparable summary of one operation's output."""
    out = op.outputs(workdir)
    if op.kind == "analyze":
        return analyze_summary(stdout, out["report"])
    if op.kind == "render":
        return render_summary(out["ppm"], out["legend"])
    return certify_summary(stdout)


def check(op, stdout: str, workdir: Path, goldens: dict, degree: int, dimension: int) -> str | None:
    """Compare one successful operation's output with its golden and invariants."""
    golden = goldens.get(op.golden_key)
    if golden is None:
        return f"no golden for {op.golden_key!r}"
    try:
        got = summarize(op, stdout, workdir)
        if op.kind == "certify":
            problem = certify_invariants(stdout, degree, dimension, op.depth)
            if problem is not None:
                return problem
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if op.kind == "analyze":
        return compare_analyze(golden, got)
    return compare_exact(golden, got, op.kind)
