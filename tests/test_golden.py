"""Golden verdicts: the paper suite's JSON report and a CLI transcript,
each compared byte for byte.

``golden/paper_suite.json`` is ``run_paper_suite(DEFAULT_SEED)`` as JSON
without timings.  ``golden/cli_transcript.txt`` is ``cli_transcript()``:
stdout, stderr and the exit code of each subcommand on valid and refused
input, with ``(N ms)`` masked.  A change that alters a claim, a status, a
detail, an input, a refusal or a printed line shows up here; such a change
updates the golden file in the same diff.  The suite runs once per test
session.  To rewrite the transcript, run from the repository root::

    PYTHONPATH=src:tests python -c "import test_golden as g; g.CLI_GOLDEN.write_text(g.cli_transcript())"
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from confalg.cli import main
from confalg.suite import DEFAULT_SEED, run_paper_suite

GOLDEN = Path(__file__).parent / "golden" / "paper_suite.json"
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.txt"

#: one valid and at least one refused run of each subcommand
CLI_RUNS = (
    "verify-axioms --algebra chv --a=-1/2 --b 0",
    "verify-axioms --a 0",
    "verify-axioms --algebra cw --a 3",
    "verify-axioms --algebra tsv --window 2",
    "verify-axioms --algebra mfam --a 1 --b 0 --ap 3 --bp 0",
    "solve-construction",
    "solve-construction --config missing-run.yaml",
    "solve-construction --seed 5",
    "check-module --algebra csv --a 0 --b 0 --kind rank1 --alpha 1/2 --c 2",
    "check-module --algebra chv --a 1 --b 0 --kind graded --base vab --window 1 --gen-bound 1",
    "check-module --algebra csv --a 0 --b 0 --kind rank1 --bitseq-lo 3",
    "check-module --algebra csv --a 0 --b 0 --kind rank1 --window 1 --gen-bound 1",
    "check-module --algebra csv --a 0 --b 0 --kind graded --base vAb",
    "check-module --algebra csv --a 1 --b 0 --kind graded --base vab --d 1 --window -1",
    "classify --algebra chv --kind rank1 --grid 1,0;0,1 --degree 4",
    "classify --algebra csv --kind rank1 --grid 0,0 --bitseqs 7 --window 1",
    "classify --algebra csv --kind rank1 --grid 0,0 --seed 3",
    "classify --algebra cw --grid 0,0",
    "classify --algebra chv --kind graded --base vab --grid 1,0 --bitseqs 2",
    "classify --algebra csv --kind rank1 --degree -1 --grid 0,0",
    "derivations --task solve --algebra csv --a 1 --b 0 --degree 3 --window 1",
    "derivations --task solve --algebra cw --degree 3 --window 1",
    "derivations --task solve --algebra cw --a 1 --b 0",
    "derivations --task solve --algebra cvir --window 0 --degree 3",
    "derivations --task dichotomy --a 1",
    "derivations --task dvec-check --algebra csv --a 1 --b 0 --window 5",
    "derivations --task dvec-check --algebra cw",
    "derivations --task dvec-check --algebra sv --a 1 --b 0",
    "derivations --task dvec-check --algebra hv --a 2 --b 0",
    "derivations --task decompose --algebra hv --a 1 --b 0 --window 0 --degree 2",
    "derivations --task decompose --algebra sv --a 1 --b 0",
    "derivations --task solve --algebra hv --a 1 --b 0",
    "derivations --task decompose --algebra cw --a 1 --b 0",
    "derivations --task solve --algebra mfam --a 1 --b 0 --ap 1 --bp 0 --window 1 --degree 3",
    "paper-suite --only 2,8",
    "paper-suite --only 2,99",
    "paper-suite --only 1 --a 3",
)


def cli_transcript() -> str:
    """Each of ``CLI_RUNS`` with its exit code, stdout and stderr."""
    parts = []
    for run in CLI_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(run.split())
        parts.append(
            f"$ confalg {run}\nexit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}"
        )
    return re.sub(r"\(\d+ ms\)", "(N ms)", "\n".join(parts))


@pytest.fixture(scope="session")
def paper_suite_json() -> str:
    return run_paper_suite(DEFAULT_SEED).to_json(include_timing=False)


def test_paper_suite_report_matches_the_golden_file(paper_suite_json):
    golden = GOLDEN.read_bytes().decode("utf-8")
    assert paper_suite_json == golden


def test_cli_transcript_matches_the_golden_file(tmp_path, monkeypatch):
    # the refused --config path must not exist
    monkeypatch.chdir(tmp_path)
    assert cli_transcript() == CLI_GOLDEN.read_bytes().decode("utf-8")
