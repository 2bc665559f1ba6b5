from __future__ import annotations

import os
from pathlib import Path

import pytest

# pyproject's `pythonpath` puts src/ on sys.path for this process only; export
# it so that CLI subprocesses started by tests import the same sources.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


# One PASS/FAIL line per acceptance criterion, for the summary.
_LOG: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log() -> list[str]:
    return _LOG


def pytest_terminal_summary(terminalreporter, exitstatus: int, config) -> None:
    if _LOG:
        terminalreporter.section("acceptance criteria")
        for line in _LOG:
            terminalreporter.write_line(line)
