"""Shared test plumbing: the acceptance gate's verdict lines, fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import critfin

#: one "[PASS]"/"[FAIL]" line per acceptance criterion, in run order
ACCEPTANCE: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)


def _run_python(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this critfin."""
    env = {**os.environ, "PYTHONPATH": str(Path(critfin.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, timeout=120
    )


def _run_cli(
    argv: list[str], setup: str = "", flags: tuple[str, ...] = ()
) -> subprocess.CompletedProcess:
    """Run ``critfin.cli.main(argv)`` in its own process, exiting with its return code.

    ``setup`` is code run after the import and before the call.  The result's
    stdout and stderr are bytes, exactly as the process wrote them.
    """
    script = f"import sys, critfin.cli\n{setup}\nsys.exit(critfin.cli.main({argv!r}))\n"
    return _run_python(script, *flags)


@pytest.fixture
def run_python():
    return _run_python


@pytest.fixture
def run_cli_process():
    return _run_cli
