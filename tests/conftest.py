"""Shared fixtures and the acceptance summary hook.

The hook prints one PASS/FAIL/SKIP line per acceptance criterion at the end
of the run so the gate's verdicts are visible without scrolling the log.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import settings

from illumest import demo_dataset, load_illuminants
from illumest.bundled import bundled_camera_paths, bundled_illuminant_manifest

# Every run draws the same examples, so a property failure seen once
# reproduces on the next run; each test keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

_ACCEPT_RE = re.compile(r"test_c(\d{2})")

_ACCEPT_LABELS = {
    1: "angular error closed forms and invariances",
    2: "PCA matches brute-force truncation",
    3: "NNLS/NNMF against independent oracles",
    4: "self-consistency is perfect on demo data",
    5: "held-out error improves with dimension",
    6: "noise sigma values and clean-row identity",
    7: "gray-world exact on white scenes",
    8: "round-trips and reproducibility",
    9: "real-dataset ordering (conditional)",
}

# Aggregated per-criterion verdicts; FAIL beats PASS beats SKIP when a
# criterion is covered by more than one test function.
_outcomes: dict[int, str] = {}
_RANK = {"FAIL": 2, "PASS": 1, "SKIP": 0}


@pytest.fixture(scope="session")
def bundled_set():
    return load_illuminants(bundled_illuminant_manifest())


@pytest.fixture(scope="session")
def bundled_cameras():
    return bundled_camera_paths()


@pytest.fixture(scope="session")
def demo_data(tmp_path_factory):
    """Materialized demo dataset: (manifest path, scene paths)."""
    out = tmp_path_factory.mktemp("demo_scenes")
    return demo_dataset(out)


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    m = _ACCEPT_RE.search(report.nodeid)
    if not m:
        return
    if report.when == "call":
        verdict = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    elif report.when == "setup" and (report.skipped or report.failed):
        verdict = "SKIP" if report.skipped else "FAIL"
    else:
        return
    n = int(m.group(1))
    prev = _outcomes.get(n)
    if prev is None or _RANK[verdict] > _RANK[prev]:
        _outcomes[n] = verdict


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_outcomes):
        label = _ACCEPT_LABELS.get(n, "")
        terminalreporter.write_line(f"ACCEPTANCE {n}: {_outcomes[n]}  ({label})")
