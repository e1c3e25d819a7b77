"""Command-line interface: map loading, reports, exit codes, renders."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import critfin
from critfin import cli
from critfin.algebra import _Parser, poly_parse
from critfin.config import DEFAULT, Config
from critfin.dynamics import endo_new
from critfin.errors import (
    BudgetError,
    CritfinError,
    DegenerateEliminationError,
    InputError,
    ParseError,
    SolverError,
    UnwritableOutputError,
)
from critfin.fatou import SliceSpec
from critfin.geometry import ProjPoint


def run(argv):
    """Invoke the CLI in-process, capturing stdout."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def f_analysis(tmp_path_factory):
    """One full `analyze` run on the plane fixture, shared across tests."""
    report_path = tmp_path_factory.mktemp("reports") / "f.json"
    code, out = run(["analyze", "f", "--report", str(report_path)])
    return code, out, json.loads(report_path.read_text())


# ---------------------------------------------------------------------------
# map loading
# ---------------------------------------------------------------------------


def test_bundled_fixture_names():
    assert cli.fixture_names() == ["f", "g3", "g4", "lattes4", "power", "quadratic"]


def test_load_map_accepts_fixture_name_with_or_without_suffix():
    f1, _ = cli.load_map("power")
    f2, doc = cli.load_map("power.json")
    assert f1 == f2
    assert doc["degree"] == 2


def test_load_map_from_path(tmp_path):
    path = tmp_path / "mymap.json"
    path.write_text(
        json.dumps(
            {"dimension": 1, "degree": 3, "components": ["z^3 - w^3", "w^3"], "name": "cubic"}
        )
    )
    f, doc = cli.load_map(str(path))
    assert f.k == 1 and f.degree == 3
    assert doc["name"] == "cubic"


@pytest.mark.parametrize(
    "doc",
    [
        "[1, 2]",
        '{"dimension": 1, "degree": 2}',
        '{"dimension": 3, "degree": 2, "components": ["z^2", "w^2", "t^2", "u^2"]}',
        '{"dimension": 1, "degree": 2, "components": ["z^2", "w^2", "t^2"]}',
        '{"dimension": 1, "degree": 2, "components": ["z^2", 7]}',
        '{"dimension": 1, "degree": 2, "components": ["z^2 +", "w^2"]}',
        '{"dimension": 1, "degree": 3, "components": ["z^2", "w^2"]}',
        '{"dimension": 1, "degree": 2, "components": ["z^2", "w^3"]}',
        '{"dimension": 2, "degree": "2", "components": ["z^2", "w^2", "t^2"]}',
        "not json at all",
    ],
)
def test_load_map_rejects_malformed_documents(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(InputError):
        cli.load_map(str(path))


@pytest.fixture
def counted_mul(monkeypatch):
    """Counts the parser's polynomial products; reads back as calls[0]."""
    calls = [0]
    real_mul = _Parser._mul

    def counting_mul(self, a, b):
        calls[0] += 1
        return real_mul(self, a, b)

    monkeypatch.setattr(_Parser, "_mul", counting_mul)
    return calls


def _map_file(tmp_path, degree, components):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dimension": 2, "degree": degree, "components": components}))
    return str(path)


def test_load_map_refuses_a_critical_set_beyond_the_factoring_cap(tmp_path, counted_mul):
    # 3(d - 1) = 27 > 24: refused before any component is parsed
    path = _map_file(tmp_path, 10, ["(z+w+t)^10", "w^10", "t^10"])
    with pytest.raises(BudgetError, match="factorization cap"):
        cli.load_map(path)
    assert counted_mul[0] == 0
    assert cli.main(["analyze", path]) == cli.EXIT_BUDGET


def test_load_map_stops_at_a_product_above_the_declared_degree(tmp_path, counted_mul):
    path = _map_file(tmp_path, 2, ["(z+w+t)^64", "w^2", "t^2"])
    with pytest.raises(ParseError, match="declared degree 2"):
        cli.load_map(path)
    # the square has degree 2; the next squaring is refused unexpanded
    assert counted_mul[0] == 2
    assert cli.main(["analyze", path]) == cli.EXIT_INPUT


def test_load_map_unknown_source_names_the_bundled_maps():
    with pytest.raises(InputError, match="quadratic"):
        cli.load_map("nosuchmap")


def test_every_bundled_fixture_parses_and_matches_its_declared_degree():
    for name in cli.fixture_names():
        f, doc = cli.load_map(name)
        assert f.degree == doc["degree"]
        assert f.k == doc["dimension"]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_verdict_lines(f_analysis):
    code, out, _ = f_analysis
    assert code == cli.EXIT_OK
    assert "critically finite of order 1: true" in out
    assert "1-critically finite: false" in out
    assert "critically finite of order 2: true" in out
    assert "2-critically finite: false" in out
    assert "superattracting-nilpotent-nonzero" in out


def test_analyze_prints_points_without_float_dust(f_analysis):
    _, out, _ = f_analysis
    points = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(points) == 21
    assert not any("e-" in line or "0j" in line for line in points)
    assert "  [1 : -0.5-0.866025j : 0]~  period 2  other" in points
    assert "  [-0.618034 : 1 : 1]~  period 1  other" in points


def test_point_text_zeroes_parts_within_the_tolerance():
    coords = (1 + 0j, -3e-9 + 0.25j, complex(-0.0, -2e-9), complex(0.5, -0.0))
    point = ProjPoint(coords, exact=False)
    assert cli._point_text(point, Config(cluster_tol=1e-8)) == "[1 : 0+0.25j : 0 : 0.5]~"
    assert repr(point) == "[1+0j : -3e-09+0.25j : -0-2e-09j : 0.5-0j]~"
    exact = ProjPoint.exact_point([1, 0, 2])
    assert cli._point_text(exact, DEFAULT) == repr(exact)


def test_report_identity(f_analysis):
    _, _, report = f_analysis
    assert report["schema_version"] == cli.SCHEMA_VERSION
    assert report["tool"]["name"] == "critfin"
    assert report["map"]["name"] == "f"


def test_report_map_echo_round_trips(f_analysis):
    _, _, report = f_analysis
    echo = report["map"]
    reparsed = endo_new([poly_parse(c, echo["dimension"] + 1) for c in echo["components"]])
    original, _ = cli.load_map("f")
    assert reparsed == original


def test_report_classification_and_periodic_points(f_analysis):
    _, _, report = f_analysis
    levels = report["classification"]["levels"]
    assert levels["1"]["finite_order"] is True
    assert levels["1"]["verdict"] is False
    assert levels["1"]["l"] == 1
    assert {c["poly"] for c in levels["1"]["C"]} == {"z", "w", "t"}
    points = report["periodic_points"]
    assert len(points) == 21
    origin = next(
        p for p in points if p["point"]["exact"] and p["point"]["coords"] == ["0", "0", "1"]
    )
    assert origin["classification"] == "superattracting-nilpotent-nonzero"
    assert origin["period"] == 1
    assert origin["decided_under"]["residual_tol"] == DEFAULT.residual_tol


def test_report_echoes_every_config_knob(f_analysis):
    _, _, report = f_analysis
    knobs = {field.name for field in dataclasses.fields(Config)}
    assert set(report["config"]) == knobs
    assert report["config"]["residual_tol"] == DEFAULT.residual_tol


def test_mutating_any_knob_changes_the_echo():
    f, doc = cli.load_map("quadratic")
    base = cli.build_report(f, doc, _tiny_classification(f), [], DEFAULT)
    for field in dataclasses.fields(Config):
        old = getattr(DEFAULT, field.name)
        bumped = DEFAULT.with_overrides(**{field.name: old * 2 + 1})
        mutated = cli.build_report(f, doc, _tiny_classification(f), [], bumped)
        assert mutated["config"] != base["config"], field.name
        assert mutated["config"][field.name] != base["config"][field.name]


def test_default_config_is_frozen():
    # every cfg=None call shares DEFAULT, so no caller may change it
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT.residual_tol = 1e-3
    assert DEFAULT.with_overrides(residual_tol=1e-3).residual_tol == 1e-3
    assert DEFAULT.residual_tol == 1e-10


def _tiny_classification(f):
    from critfin.postcritical import classify

    return classify(f, order=1)


def test_analyze_order_flag_restricts_levels(tmp_path):
    report_path = tmp_path / "p1.json"
    code, out = run(["analyze", "power", "--order", "1", "--report", str(report_path)])
    assert code == cli.EXIT_OK
    report = json.loads(report_path.read_text())
    assert list(report["classification"]["levels"]) == ["1"]


def test_analyze_order_two_exposes_the_vertex_inventory(tmp_path):
    report_path = tmp_path / "p2.json"
    code, _ = run(["analyze", "power", "--order", "2", "--report", str(report_path)])
    assert code == cli.EXIT_OK
    levels = json.loads(report_path.read_text())["classification"]["levels"]
    C2 = levels["2"]["C"]
    assert len(C2) == 3 and all(c["kind"] == "point" for c in C2)
    assert levels["2"]["F"], "the second-order tail set is nonempty for the power map"
    assert levels["2"]["verdict"] is False


def test_seed_option_is_unknown(capsys):
    code, out = run(["--seed", "7", "analyze", "quadratic"])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "usage: critfin" in capsys.readouterr().err


def test_analyze_budget_exhaustion_exits_3(capsys):
    code = cli.main(["analyze", "f", "--budget", "1"])
    assert code == cli.EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_budget_must_be_positive():
    code, _ = run(["analyze", "f", "--budget", "0"])
    assert code == cli.EXIT_INPUT


# ---------------------------------------------------------------------------
# certify-ramification
# ---------------------------------------------------------------------------


def test_certify_power_vertex_free_root():
    code, out = run(["certify-ramification", "power", "--point", "1,1,1", "--depth", "2"])
    assert code == cli.EXIT_OK
    cert = json.loads(out)
    assert cert["verdict"] == "all-within-bound"
    assert cert["bound"] == 2
    assert cert["max_passages"] == 0


def test_certify_f_generic_root():
    code, out = run(["certify-ramification", "f", "--point", "2,3,5", "--depth", "3"])
    assert code == cli.EXIT_OK
    cert = json.loads(out)
    assert cert["verdict"] == "all-within-bound"
    assert cert["root"] == {"coords": ["2", "3", "5"], "exact": True}
    assert cert["depth"] == 3


def test_certify_root_on_postcritical_line_is_not_applicable():
    code, out = run(["certify-ramification", "f", "--point", "0,1,1"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["verdict"] == "not-applicable"


@pytest.mark.parametrize(
    "fixture, point, depth",
    [("power", "0,1,2", "3"), ("g3", "1,0,1", "2"), ("g4", "0,1,1", "2")],
)
def test_certify_excluded_root_is_not_applicable_without_solving(fixture, point, depth):
    # these roots lie on critical cycle curves, where fibers are multiple and
    # need not separate; membership is decided before any fiber is solved
    code, out = run(["certify-ramification", fixture, "--point", point, "--depth", depth])
    assert code == cli.EXIT_OK
    cert = json.loads(out)
    assert cert["verdict"] == "not-applicable"
    assert cert["paths"] == []


@pytest.mark.parametrize("fixture, point", [("power", "0,1,2"), ("g3", "1,0,1"), ("g4", "0,1,1")])
def test_certify_excluded_root_still_checks_the_depth_cap(fixture, point):
    code, _ = run(["certify-ramification", fixture, "--point", point, "--depth", "5"])
    assert code == cli.EXIT_INPUT


def test_certify_accepts_rational_coordinates():
    code, out = run(["certify-ramification", "power", "--point", "1/2,1/3,1", "--depth", "1"])
    assert code == cli.EXIT_OK
    # rational input lands on the primitive integer representative
    assert json.loads(out)["root"]["coords"] == ["3", "2", "6"]


@pytest.mark.parametrize("point", ["1,oops,1", "1,1", "1,1,1,1", "1,1/0,1"])
def test_certify_rejects_malformed_points(point):
    code, _ = run(["certify-ramification", "f", "--point", point])
    assert code == cli.EXIT_INPUT


def test_solver_shortfall_exits_4(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("no root refinement converged")

    monkeypatch.setattr(cli, "certify_ramification", boom)
    code = cli.main(["certify-ramification", "f", "--point", "2,3,5"])
    assert code == cli.EXIT_SOLVER
    assert "solver" in capsys.readouterr().err


#: what `analyze g3` prints before it exits 4: every center of each of its
#: period-2 minor pairs lies on a curve or gives an ambiguous fiber (ROADMAP
#: item 3).  The ladder's screens refuse those centers sooner, in the same words.
G3_SHORTFALL = (
    "critfin: solver shortfall: every fixed-point minor pair degenerated: "
    "no projection center separated the intersection: "
    "center (0,0) lies on or near a curve; center (1,0) lies on or near a curve; "
    "center (0,1) lies on or near a curve; center (1,1) lies on or near a curve; "
    "center (-1,0) lies on or near a curve; center (0,-1) lies on or near a curve; "
    "center (1,-1) lies on or near a curve; center (-1,1) lies on or near a curve; "
    "center (2,1) lies on or near a curve; center (1,2) produced an ambiguous fiber; "
    "center (-2,1) lies on or near a curve; center (3,2) produced an ambiguous fiber\n"
)


def test_analyze_g3_exits_4_naming_every_refused_center(capsys):
    assert cli.main(["analyze", "g3"]) == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == G3_SHORTFALL


def test_python_dash_m_critfin_prints_what_cli_main_prints():
    env = {**os.environ, "PYTHONPATH": str(Path(critfin.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "critfin", "analyze", "quadratic"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == cli.EXIT_OK, done.stderr.decode()
    code, out = run(["analyze", "quadratic"])
    assert code == cli.EXIT_OK
    assert done.stdout.decode() == out


#: SHA-256 of outputs whose every float (Newton polish, complex fibers,
#: floating roots) must come back bit for bit.  The report digests are of
#: schema-version-2 reports.  The plane entries of f, power and g3 were
#: re-recorded when floating fibers came to be read off the first
#: subresultant and Newton came to stop at rounding noise: their floating
#: points moved in the last bits only.
ELIMINATION_DIGESTS = {
    "analyze f": "fa558425f1885549f73dec111d61d76c81c07b0e52b793c4f8ef15a3155aed60",
    "analyze power": "bbe134f467706afd11098b05138761a2212409465ea71c39cb0de278b0473be2",
    "certify f 2,3,5 3": "b01ff2469f4ea01dec8fd52ff46ff5f1b53096f50cb8c999c7e0f99ecdeb9eff",
    "analyze lattes4": "b6ba80127e728d4694c54ba9b53381c27fea6ccdce2209128571c176ca193693",
    "certify lattes4 1,3 4": "9cc1ddfb26ebaedfd13ba050b519972904a6a9892830ef97814d77f82133d11e",
    "certify g3 1,2,3 2": "dfb2f5ceed87b0529e1935989864f26e2c4875e63655b431e3e4bb698a956843",
    "certify f 0,1,1 2": "89a352a09ac804a096ca0313ca5f9d49f2b93bf90d614876bb53be874762969a",
}


@pytest.mark.parametrize("fixture", ["f", "power"])
def test_analyze_report_bytes_match_recorded_digest(fixture, tmp_path):
    report = tmp_path / "report.json"
    code, _ = run(["analyze", fixture, "--report", str(report)])
    assert code == cli.EXIT_OK
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == ELIMINATION_DIGESTS[f"analyze {fixture}"]


def test_certify_floating_fibers_match_recorded_digest():
    code, out = run(["certify-ramification", "f", "--point", "2,3,5", "--depth", "3"])
    assert code == cli.EXIT_OK
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ELIMINATION_DIGESTS["certify f 2,3,5 3"]


def test_analyze_p1_report_bytes_match_recorded_digest(tmp_path):
    # P^1 floating roots: lattes4's periodic points
    report = tmp_path / "report.json"
    code, _ = run(["analyze", "lattes4", "--report", str(report)])
    assert code == cli.EXIT_OK
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == ELIMINATION_DIGESTS["analyze lattes4"]


@pytest.mark.parametrize(
    "fixture, point, depth",
    [
        # P^1 floating roots and floating fibres
        ("lattes4", "1,3", "4"),
        # degree-3 plane fibres over floating parents
        ("g3", "1,2,3", "2"),
        # a root over f's critical set whose tree is solved
        ("f", "0,1,1", "2"),
    ],
)
def test_certify_output_matches_recorded_digest(fixture, point, depth):
    argv = ["certify-ramification", fixture, "--point", point, "--depth", depth]
    code, out = run(argv)
    assert code == cli.EXIT_OK
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ELIMINATION_DIGESTS[f"certify {fixture} {point} {depth}"]


def test_certify_in_its_own_process_writes_the_recorded_bytes(run_cli_process):
    # the import freezes the heap; a real exit must still flush all of stdout
    done = run_cli_process(["certify-ramification", "f", "--point", "2,3,5", "--depth", "3"])
    assert done.returncode == cli.EXIT_OK, done.stderr.decode()
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert digest == ELIMINATION_DIGESTS["certify f 2,3,5 3"]


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_writes_image_and_sidecar(tmp_path):
    out = tmp_path / "basins.ppm"
    code, text = run(
        ["render", "power", "--res", "64x64", "--iter", "120", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    data = out.read_bytes()
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 64 * 64 * 3
    sidecar = json.loads((tmp_path / "basins.json").read_text())
    assert set(sidecar) == {"legend", "colors", "summary"}
    assert sidecar["legend"]["0"] == "undecided"
    for name, fraction in sidecar["summary"].items():
        assert f"{fraction:.6f}  {name}" in text


def test_render_single_pixel(tmp_path):
    out = tmp_path / "one.ppm"
    code, _ = run(["render", "f", "--res", "1x1", "--iter", "60", "--out", str(out)])
    assert code == cli.EXIT_OK
    data = out.read_bytes()
    assert data.startswith(b"P6\n1 1\n255\n")
    assert len(data) == len(b"P6\n1 1\n255\n") + 3


def test_render_sidecar_name_for_non_ppm_suffix(tmp_path):
    out = tmp_path / "basins.img"
    code, _ = run(["render", "quadratic", "--res", "8x8", "--iter", "40", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "basins.img.legend.json").is_file()


def test_render_custom_slice(tmp_path):
    out = tmp_path / "line.ppm"
    spec = json.dumps({"chart": 0, "base": [0, 0], "center": [0.5, 0.0], "extent": 2.5})
    code, _ = run(
        ["render", "f", "--slice", spec, "--res", "16x8", "--iter", "40", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    assert out.read_bytes().startswith(b"P6\n16 8\n255\n")


def test_render_slice_accepts_complex_strings(tmp_path):
    out = tmp_path / "cx.ppm"
    spec = json.dumps({"dir_u": ["1", 0], "dir_v": ["1j", 0]})
    code, _ = run(
        ["render", "f", "--slice", spec, "--res", "4x4", "--iter", "30", "--out", str(out)]
    )
    assert code == cli.EXIT_OK


@pytest.mark.parametrize(
    "spec",
    [
        "not json",
        "[1, 2]",
        '{"tilt": 1}',
        '{"chart": "z"}',
        '{"center": [1]}',
        '{"extent": "wide"}',
        '{"dir_u": 5}',
        '{"dir_u": ["abc", 0]}',
        '{"center": ["a", 0]}',
        '{"center": [null, 0]}',
        '{"center": [1e999, 0]}',
        '{"center": [0, NaN]}',
        '{"base": ["nan", 0]}',
        '{"base": [1e999, 0]}',
        '{"dir_u": ["inf", 0]}',
        '{"dir_v": [0, "nanj"]}',
        '{"extent": 1e999}',
    ],
)
def test_render_rejects_malformed_slices(tmp_path, spec):
    code, _ = run(["render", "f", "--slice", spec, "--out", str(tmp_path / "x.ppm")])
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize(
    "field, value",
    [
        ("base", (float("nan"), 0)),
        ("dir_u", (complex(1, float("inf")), 0)),
        ("dir_v", (0, float("-inf"))),
        ("center", (float("inf"), 0.0)),
        ("extent", float("inf")),
        ("center", (None, 0.0)),
        ("base", "12"),
        ("center", "12"),
        ("chart", "z"),
        ("extent", "wide"),
        ("center", (1,)),
        ("base", (10**400, 0)),
        ("extent", 10**400),
    ],
)
def test_slice_spec_rejects_non_numeric_and_non_finite_values(field, value):
    spec = SliceSpec.default(2, width=4, height=4)
    with pytest.raises(InputError):
        dataclasses.replace(spec, **{field: value})


@pytest.mark.parametrize("res", ["12y9", "0x4", "axb", "12", "12x-4"])
def test_render_rejects_malformed_resolutions(tmp_path, res):
    code, _ = run(["render", "f", "--res", res, "--out", str(tmp_path / "x.ppm")])
    assert code == cli.EXIT_INPUT


def test_render_rejects_nonpositive_iteration_count(tmp_path):
    code, _ = run(
        ["render", "f", "--res", "4x4", "--iter", "0", "--out", str(tmp_path / "x.ppm")]
    )
    assert code == cli.EXIT_INPUT


def test_unwritable_output_exits_5(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.ppm"
    code = cli.main(["render", "quadratic", "--res", "4x4", "--iter", "30", "--out", str(out)])
    assert code == cli.EXIT_OUTPUT
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "quadratic", "--out", "{tmp}/missing/x.ppm"],
        ["render", "quadratic", "--out", "{tmp}"],
        ["render", "quadratic", "--out", "{tmp}/taken.ppm"],  # the sidecar is a directory
        ["analyze", "quadratic", "--report", "{tmp}/missing/r.json"],
        ["analyze", "quadratic", "--report", "{tmp}"],
    ],
)
def test_unwritable_outputs_fail_before_any_work(monkeypatch, tmp_path, capsys, argv):
    def solved(*args, **kwargs):
        raise AssertionError("solved before checking the outputs")

    for name in ("build_targets", "classify", "find_periodic"):
        monkeypatch.setattr(cli, name, solved)
    (tmp_path / "taken.json").mkdir()
    code = cli.main([arg.format(tmp=tmp_path) for arg in argv])
    assert code == cli.EXIT_OUTPUT
    assert "cannot write output" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert "analyze" in capsys.readouterr().out


def test_missing_subcommand_is_invalid_input(capsys):
    assert cli.main([]) == cli.EXIT_INPUT
    capsys.readouterr()


def test_unknown_option_is_invalid_input(capsys):
    assert cli.main(["analyze", "f", "--frobnicate"]) == cli.EXIT_INPUT
    capsys.readouterr()


def test_exit_codes_cover_the_documented_failure_modes():
    assert cli.EXIT_OK == 0
    assert sorted(set(cli.EXIT_CODES.values())) == [2, 3, 4, 5]


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (ParseError("bad", 3), 2, "critfin: invalid input: bad (at position 3)"),
        (BudgetError("spent"), 3, "critfin: budget exhausted: spent"),
        (DegenerateEliminationError("flat"), 4, "critfin: solver shortfall: flat"),
        (UnwritableOutputError("ro"), 5, "critfin: cannot write output: ro"),
        (PermissionError("denied"), 5, "critfin: cannot write output: denied"),
        (CritfinError("other"), 2, "critfin: other"),
    ],
)
def test_failures_map_to_exit_code_and_stderr_line(monkeypatch, capsys, exc, code, line):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    assert cli.main(["analyze", "f"]) == code
    assert capsys.readouterr().err == line + "\n"
