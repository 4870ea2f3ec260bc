import numpy as np
import pytest

from boxmode import LandauSpec, WellSpec

# Lines recorded by the acceptance tests, echoed at the end of the run so
# the verdict for every criterion is visible even under output capture.
ACCEPTANCE_LINES = []


def record_acceptance(name: str, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"ACCEPT {name}: {verdict} ({detail})")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def spec():
    return WellSpec()


@pytest.fixture
def landau():
    return LandauSpec()


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
