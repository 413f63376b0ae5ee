"""Golden verdicts: the paper suite's JSON report, compared byte for byte.

``golden/paper_suite.json`` is ``run_paper_suite(DEFAULT_SEED)`` as JSON
without timings.  A change that alters a claim, a status, a detail or an
input of any check shows up here; such a change updates the golden file in
the same diff.  The suite runs once per test session.
"""

from pathlib import Path

import pytest

from confalg.suite import DEFAULT_SEED, run_paper_suite

GOLDEN = Path(__file__).parent / "golden" / "paper_suite.json"


@pytest.fixture(scope="session")
def paper_suite_json() -> str:
    return run_paper_suite(DEFAULT_SEED).to_json(include_timing=False)


def test_paper_suite_report_matches_the_golden_file(paper_suite_json):
    golden = GOLDEN.read_bytes().decode("utf-8")
    assert paper_suite_json == golden

