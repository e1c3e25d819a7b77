"""Command-line surface: map files, JSON reports, and the three subcommands.

``critfin analyze`` classifies critical finiteness and certifies periodic
points, ``critfin certify-ramification`` counts critical passages along the
backward orbit of one rational root, and ``critfin render`` rasterizes basin
verdicts over a slice of start points.  Maps come from JSON files (or the
bundled fixtures, by name); reports are schema-versioned JSON that echo the
map, the full configuration, and the tolerances every verdict was decided
under.

Exit codes: 0 success, 2 invalid input, 3 budget exhaustion, 4 solver
shortfall, 5 unwritable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from .algebra import HomogPoly, _Parser
from .config import DEFAULT, Config, resolve
from .dynamics import Endomorphism, PeriodicPoint, endo_new, find_periodic
from .errors import (
    BudgetError,
    CritfinError,
    InputError,
    SolverError,
    UnwritableOutputError,
)
from .fatou import SliceSpec, build_targets, render_slice, write_legend, write_ppm
from .geometry import ProjPoint
from .postcritical import ClassificationReport, classify
from .ramification import certify_ramification

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4
EXIT_OUTPUT = 5


class ExitCode(int):
    """A process exit code carrying the stderr prefix of its failure class."""

    def __new__(cls, code: int, prefix: str) -> "ExitCode":
        self = super().__new__(cls, code)
        self.prefix = prefix
        return self


#: how library failures surface as process failures; the first class that
#: matches decides, so subclasses come before their bases
EXIT_CODES = {
    InputError: ExitCode(EXIT_INPUT, "invalid input: "),
    BudgetError: ExitCode(EXIT_BUDGET, "budget exhausted: "),
    SolverError: ExitCode(EXIT_SOLVER, "solver shortfall: "),
    UnwritableOutputError: ExitCode(EXIT_OUTPUT, "cannot write output: "),
    OSError: ExitCode(EXIT_OUTPUT, "cannot write output: "),
    CritfinError: ExitCode(EXIT_INPUT, ""),
}


# ---------------------------------------------------------------------------
# map files
# ---------------------------------------------------------------------------


def fixture_names() -> list[str]:
    """Names of the bundled example maps."""
    files = resources.files("critfin") / "fixtures"
    return sorted(entry.name[:-5] for entry in files.iterdir() if entry.name.endswith(".json"))


def _map_text(source: str) -> str:
    path = Path(source)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    name = source[:-5] if source.endswith(".json") else source
    bundled = resources.files("critfin") / "fixtures" / f"{name}.json"
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise InputError(
        f"no such map file or bundled fixture: {source!r}"
        f" (bundled: {', '.join(fixture_names())})"
    )


def load_map(source: str) -> tuple[Endomorphism, dict]:
    """Parse a map document from a file path or a bundled fixture name.

    The document must declare ``dimension`` (1 or 2), ``degree``, and
    ``components`` (k+1 polynomial strings); the declared degree must match
    the parsed one exactly.  It is enforced before any expansion: a product
    above it is a ParseError, and a plane map whose critical set, of degree
    3(d - 1), is too large to factor is a BudgetError.
    """
    try:
        doc = json.loads(_map_text(source))
    except json.JSONDecodeError as exc:
        raise InputError(f"map file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("a map file must be a JSON object")
    for key in ("dimension", "degree", "components"):
        if key not in doc:
            raise InputError(f"map file lacks the required key {key!r}")
    k = doc["dimension"]
    if k not in (1, 2):
        raise InputError(f"dimension must be 1 or 2, got {k!r}")
    comps = doc["components"]
    if (
        not isinstance(comps, list)
        or len(comps) != k + 1
        or not all(isinstance(c, str) for c in comps)
    ):
        raise InputError(f"a map of P^{k} needs exactly {k + 1} component strings")
    d, cap = doc["degree"], DEFAULT.factor_degree_cap
    if not isinstance(d, int):
        raise InputError(f"degree must be an integer, got {d!r}")
    if k == 2 and 3 * (d - 1) > cap:
        raise BudgetError(f"critical set degree {3 * (d - 1)} exceeds the factorization cap {cap}")
    f = endo_new([HomogPoly(k + 1, _Parser(c, k + 1, d).parse()) for c in comps])
    if f.degree != d:
        raise InputError(f"declared degree {d} but the components parse to degree {f.degree}")
    return f, doc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _eigen_entry(value) -> object:
    if isinstance(value, (int, Fraction)):
        return str(value)
    z = complex(value)
    return [z.real, z.imag]


def _periodic_dict(pp: PeriodicPoint, cfg: Config) -> dict:
    return {
        "point": pp.point.as_dict(),
        "period": pp.period,
        "classification": pp.classification,
        "eigen_data": [_eigen_entry(v) for v in pp.eigen_data],
        "residual": pp.residual,
        "decided_under": {"residual_tol": cfg.residual_tol},
        "diagnostics": pp.diagnostics,
    }


def build_report(
    f: Endomorphism,
    doc: dict,
    classification: ClassificationReport,
    periodic: list[PeriodicPoint],
    cfg: Config,
) -> dict:
    """The full JSON report: map echo, verdicts, and the deciding config."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "critfin", "version": __version__},
        "map": {
            "dimension": f.k,
            "degree": f.degree,
            "components": [str(form) for form in f.forms],
            "name": doc.get("name"),
            "notes": doc.get("notes"),
        },
        "config": cfg.as_dict(),
        "decided_under": {
            "residual_tol": cfg.residual_tol,
            "ambiguity_factor": cfg.ambiguity_factor,
        },
        "classification": classification.as_dict(),
        "periodic_points": [_periodic_dict(pp, cfg) for pp in periodic],
    }


def _tri(verdict) -> str:
    return "undecided (budget)" if verdict is None else str(verdict).lower()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _check_output(path: Path) -> None:
    """Refuse an output path before any work: it must not be a directory, and
    its parent must be a writable directory."""
    if path.is_dir():
        raise UnwritableOutputError(f"{path} is a directory")
    if not path.parent.is_dir() or not os.access(path.parent, os.W_OK):
        raise UnwritableOutputError(f"{path.parent} is not a writable directory")


def _config_from(args) -> Config:
    cfg = resolve(None)
    budget = getattr(args, "budget", None)
    if budget is not None:
        if budget < 1:
            raise InputError("--budget must be a positive node count")
        cfg = cfg.with_overrides(budget_curve_nodes=budget, budget_point_nodes=budget)
    return cfg


def _point_text(point: ProjPoint, cfg: Config) -> str:
    """``repr(point)``, but float parts within cluster_tol of 0 show as 0 (imaginary: dropped)."""
    if point.exact:
        return repr(point)
    tol = cfg.cluster_tol
    zs = [complex(*(x if abs(x) > tol else 0.0 for x in (c.real, c.imag))) for c in point.coords]
    return "[" + " : ".join(f"{z:.6g}" if z.imag else f"{z.real:.6g}" for z in zs) + "]~"


def cmd_analyze(args) -> int:
    f, doc = load_map(args.map)
    cfg = _config_from(args)
    order = args.order if args.order is not None else min(f.k, 2)
    if args.report:
        _check_output(Path(args.report))
    classification = classify(f, order=order, cfg=cfg)
    periodic = find_periodic(f, 2, cfg)

    for n in sorted(classification.levels):
        lvl = classification.levels[n]
        print(f"critically finite of order {n}: {_tri(lvl.finite_order)}")
        print(f"{n}-critically finite: {_tri(lvl.verdict)}")
    print(f"periodic points of period <= 2: {len(periodic)}")
    for pp in periodic:
        print(f"  {_point_text(pp.point, cfg)}  period {pp.period}  {pp.classification}")

    if args.report:
        report = build_report(f, doc, classification, periodic, cfg)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    budget_hit = any(lvl.finite_order is None for lvl in classification.levels.values())
    return EXIT_BUDGET if budget_hit else EXIT_OK


def _parse_point(text: str, k: int) -> ProjPoint:
    try:
        coords = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"point coordinates must be rationals: {exc}") from None
    if len(coords) != k + 1:
        raise InputError(f"a point of P^{k} needs {k + 1} comma-separated coordinates")
    return ProjPoint.exact_point(coords)


def cmd_certify_ramification(args) -> int:
    f, _ = load_map(args.map)
    cfg = _config_from(args)
    q = _parse_point(args.point, f.k)
    cert = certify_ramification(f, q, depth=args.depth, cfg=cfg)
    # each write is a syscall on an unbuffered stdout, and joining the whole
    # text holds every small chunk at once: write a thousand chunks at a time
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(cert.as_dict())
    while batch := "".join(itertools.islice(chunks, 1024)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")
    return EXIT_OK


def _parse_res(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        width, height = (int(p) for p in parts)
    except ValueError:
        raise InputError(f"--res must look like WIDTHxHEIGHT, got {text!r}") from None
    return width, height


def _parse_slice(text: str, k: int, width: int, height: int) -> SliceSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"--slice is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("--slice must be a JSON object")
    unknown = set(doc) - {"base", "dir_u", "dir_v", "chart", "center", "extent"}
    if unknown:
        raise InputError(f"unknown slice keys: {', '.join(sorted(unknown))}")
    return dataclasses.replace(SliceSpec.default(k, width=width, height=height), **doc)


def _sidecar_path(out: Path) -> Path:
    if out.suffix == ".ppm":
        return out.with_suffix(".json")
    return out.with_name(out.name + ".legend.json")


def cmd_render(args) -> int:
    f, _ = load_map(args.map)
    cfg = _config_from(args)
    width, height = _parse_res(args.res)
    spec = _parse_slice(args.slice, f.k, width, height)
    if args.iter is not None and args.iter < 1:
        raise InputError("--iter must be at least 1")
    out = Path(args.out)
    sidecar = _sidecar_path(out)
    for path in (out, sidecar):
        _check_output(path)
    targets = build_targets(f, cfg=cfg)
    image = render_slice(f, spec, targets, max_iter=args.iter, cfg=cfg)
    write_ppm(image, out)
    write_legend(image, sidecar)
    for label in sorted(image.legend):
        name = image.legend[label]
        print(f"{image.summary[name]:.6f}  {name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critfin",
        description="Critical finiteness, ramification certificates, and basin renders "
        "for polynomial endomorphisms of P^1 and P^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="classify critical finiteness and certify periodic points"
    )
    analyze.add_argument("map", help="map file path or bundled fixture name")
    analyze.add_argument("--order", type=int, choices=(1, 2), help="highest order to analyze")
    analyze.add_argument("--report", help="write the JSON report here")
    analyze.add_argument("--budget", type=int, help="override the orbit-graph node budgets")
    analyze.set_defaults(func=cmd_analyze)

    certify = sub.add_parser(
        "certify-ramification",
        help="count critical passages along the backward orbit of a rational root",
    )
    certify.add_argument("map", help="map file path or bundled fixture name")
    certify.add_argument(
        "--point", required=True, help='rational homogeneous coordinates, e.g. "2,3,5"'
    )
    certify.add_argument("--depth", type=int, help="backward tree depth (default 3, cap 4)")
    certify.add_argument("--budget", type=int, help="override the orbit-graph node budgets")
    certify.set_defaults(func=cmd_certify_ramification)

    render = sub.add_parser("render", help="render basin verdicts over a slice")
    render.add_argument("map", help="map file path or bundled fixture name")
    render.add_argument(
        "--slice",
        default="{}",
        help="JSON slice spec: base, dir_u, dir_v, chart, center, extent "
        "(defaults to the standard chart window)",
    )
    render.add_argument("--res", default="128x128", help="resolution WIDTHxHEIGHT")
    render.add_argument("--iter", type=int, help="orbit length per pixel")
    render.add_argument("--out", required=True, help="output PPM path")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic; fold its failure into the
        # invalid-input code and let --help exit cleanly
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"critfin: {code.prefix}{exc}", file=sys.stderr)
        return int(code)


if __name__ == "__main__":
    sys.exit(main())
