"""Shared test plumbing: the corpus audit, and acceptance-criterion lines in the summary."""

from __future__ import annotations

import pytest

from corpus import audit_corpus

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


@pytest.fixture(scope="session")
def audits():
    """Each corpus document's audit and digest line by name, from one run per session."""
    return audit_corpus()


def pytest_terminal_summary(terminalreporter) -> None:
    # Captured stdout hides the per-criterion prints unless -s is given;
    # replay them so a plain `pytest -v` run still reads as a checklist.
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.line(line)
