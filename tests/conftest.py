"""Shared pytest infrastructure.

The acceptance tests attach a one-line summary to their report via
``record_property("acceptance", ...)``; the hooks below print that line
with the test's outcome as it finishes and repeat all of them in a
final summary section, so a plain ``pytest -v`` run shows one printed
PASS/FAIL line per acceptance criterion.
"""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# ``pytest --hypothesis-profile=ci`` runs 20 times the examples: the tests
# whose count follows the profile take max_examples // 5 (20 and 400)
settings.register_profile("ci", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")

_ACCEPTANCE_LINES: list[str] = []


@pytest.hookimpl(trylast=True)
def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    for key, value in report.user_properties:
        if key == "acceptance":
            status = "PASS" if report.passed else "FAIL"
            line = f"{status}  {value}"
            _ACCEPTANCE_LINES.append(line)
            print(f"[acceptance] {line}", flush=True)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)
