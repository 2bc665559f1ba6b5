from __future__ import annotations

import os
from pathlib import Path

import pytest

# pyproject's `pythonpath` puts src/ on sys.path for this process only; export
# it so that CLI subprocesses started by tests import the same sources.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


class AcceptanceLog:
    """Collects one PASS/FAIL line per acceptance criterion for the summary."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def record(self, line: str) -> None:
        self.lines.append(line)


_LOG = AcceptanceLog()


@pytest.fixture(scope="session")
def acceptance_log() -> AcceptanceLog:
    return _LOG


def pytest_terminal_summary(terminalreporter, exitstatus: int, config) -> None:
    if _LOG.lines:
        terminalreporter.section("acceptance criteria")
        for line in _LOG.lines:
            terminalreporter.write_line(line)
