"""Shared test configuration and the acceptance summary block.

test_acceptance.py carries one test per numbered gate criterion; after
the run the terminal summary prints one PASS/FAIL line for each, so the
whole gate is readable at a glance.
"""

import re

CRITERIA = [
    ("C01", "fixture-fidelity"),
    ("C02", "mak-lmakp-pointwise"),
    ("C03", "involution"),
    ("C04", "q-stirling-genfun"),
    ("C05", "trace-identities"),
    ("C06", "block-exchange"),
    ("C07", "motzkin-roundtrip"),
    ("C08", "ordered-equidistribution"),
    ("C09", "bell12-performance"),
    ("C10", "cross-oracle"),
]

_PATTERN = re.compile(r"test_acceptance\.py::test_(c\d{2})_")
_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    m = _PATTERN.search(report.nodeid)
    if m is None:
        return
    cid = m.group(1).upper()
    if report.when == "call":
        _outcomes[cid] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        _outcomes[cid] = "FAIL"
    elif report.skipped:
        _outcomes.setdefault(cid, "SKIP")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not any(cid in _outcomes for cid, _ in CRITERIA):
        return
    terminalreporter.section("acceptance criteria")
    for cid, label in CRITERIA:
        if cid in _outcomes:
            terminalreporter.write_line(f"{cid} {label}: {_outcomes[cid]}")
