"""The JSON schemas under docs/ describe what critfin reads and writes."""

import json
from importlib import resources
from pathlib import Path

import pytest

from critfin import cli

jsonschema = pytest.importorskip("jsonschema")

DOCS = Path(__file__).resolve().parents[1] / "docs"


def _validator(name):
    schema = json.loads((DOCS / name).read_text(encoding="utf-8"))
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


@pytest.mark.parametrize("fixture", ["f", "power", "quadratic", "lattes4"])
def test_analyze_reports_match_the_report_schema(fixture, tmp_path):
    path = tmp_path / "report.json"
    assert cli.main(["analyze", fixture, "--report", str(path)]) == cli.EXIT_OK
    report = json.loads(path.read_text())
    validator = _validator("report.schema.json")
    validator.validate(report)
    # a field the schema does not name is refused
    assert not validator.is_valid({**report, "seed": 0})


def test_bundled_map_files_match_the_map_schema():
    validator = _validator("map.schema.json")
    names = cli.fixture_names()
    assert len(names) == 6
    for name in names:
        text = (resources.files("critfin") / "fixtures" / f"{name}.json").read_text()
        validator.validate(json.loads(text))


#: the first root of the benchmark's seeded pool, per dimension
_POOL_ROOT = {1: "7,5", 2: "1,9,1"}


@pytest.mark.parametrize(
    "fixture, point",
    [(fx, None) for fx in ("f", "power", "quadratic", "lattes4", "g3", "g4")]
    + [("power", "0,1,2")],  # on a critical cycle curve: not-applicable, no paths
)
def test_certificates_match_the_certificate_schema(fixture, point, capsys):
    f, _ = cli.load_map(fixture)
    point = point or _POOL_ROOT[f.k]
    argv = ["certify-ramification", fixture, "--point", point, "--depth", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    validator = _validator("certificate.schema.json")
    validator.validate(cert)
    assert (cert["verdict"] == "not-applicable") == (point == "0,1,2")
    # a field the schema does not name is refused
    assert not validator.is_valid({**cert, "seed": 0})
