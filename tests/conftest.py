"""Shared pytest wiring: surfaces the acceptance-criterion PASS/FAIL lines in
the terminal summary, where capture cannot hide them, and starts each test
without a stealth prefix left in `sim`'s slot by an earlier one."""

import pytest

from fedpoison import sim

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def _empty_prefix_slot():
    sim._PREFIX_SLOT.clear()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
