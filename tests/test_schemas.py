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
