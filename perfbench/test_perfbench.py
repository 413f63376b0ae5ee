"""Checks of the benchmark itself: seeded inputs, independent references,
traced counts that repeat exactly, and verdicts that tracing leaves alone.

Run from the repository root:

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from confalg import classify  # noqa: E402
from confalg.poly import GaussianRational, MPoly  # noqa: E402
from probe import MIN_SAMPLES, Probe  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)


@pytest.fixture(scope="module", autouse=True)
def certificate():
    classify.certify_self_commuting_d_free(run.CERT_DEGREE)


def _cases(workload: str, seed: int, n: int) -> list:
    return list(islice(workloads.schedule(workload, seed), n))


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert _cases(workload, 5, 12) == _cases(workload, 5, 12)
    assert _cases(workload, 5, 12) != _cases(workload, 6, 12)


def _pass(workload: str, traced: bool) -> dict:
    """One pass over three cases in a fresh process, as a traced run makes it."""
    code = ("import json, run; "
            f"print(json.dumps(run.answer_cases({workload!r}, 11, 3, {traced})))")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")), check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_tracing_keeps_verdicts(workload):
    plain = _pass(workload, False)
    assert plain["wrong"] == plain["failed"] == 0
    first, second = _pass(workload, True), _pass(workload, True)
    assert first["verdicts"] == second["verdicts"] == plain["verdicts"]
    assert first["counts"] == second["counts"]
    assert first["counts"]["poly.mul.calls"] > 0
    assert first["counts"]["poly.scalar_mul.calls"] > 0


def test_tracer_restores_every_entry_point():
    from confalg import derivations, linsolve

    before = (MPoly.__mul__, MPoly.__rmul__, GaussianRational.__radd__,
              linsolve.reduce_rows, derivations.reduce_rows)
    with Tracer():
        assert derivations.reduce_rows is not before[4]
    assert (MPoly.__mul__, MPoly.__rmul__, GaussianRational.__radd__,
            linsolve.reduce_rows, derivations.reduce_rows) == before


def test_module_inputs_keep_the_known_red():
    bits = [case.bits for case in _cases("modules", 3, 40) if case.base == "vAb"]
    assert any(len(set(seq)) > 1 for seq in bits)
    assert (0,) * workloads.BITS_LEN in bits and (1,) * workloads.BITS_LEN in bits


@pytest.mark.parametrize("fill", [0, 1])
def test_constant_bits_extend_at_csv_origin(fill):
    case = workloads.ModuleCase(
        "csv", 0, 0, "vAb", None, (fill,) * workloads.BITS_LEN, Fraction(1, 3), Fraction(1)
    )
    observed = case.run()
    assert dict(observed[0])["Y"] == "d" and case.check(observed)


def test_construction_reference_compares_polynomials():
    half = Fraction(1, 2)
    case = workloads.ConstructionCase(())
    ap, bp = MPoly.var("a").scale(half) + 1, MPoly.var("b").scale(half)
    assert case.check((ap, bp, ()))
    assert not case.check((ap + MPoly.var("b"), bp, ()))


def test_tail_counts_samples_beyond():
    samples = [float(k) for k in range(40)]
    value, beyond = run.tail(samples, 75)
    assert beyond == sum(s > value for s in samples) == 10
    assert set(run.TAIL_LEVEL) == set(run.WORKLOADS)


def test_probe_leaves_its_own_time_out():
    with Probe() as probe:
        probe.warm_up()
        mark = probe.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        wall = time.perf_counter() - t0
        raw, scaled = probe.since(mark)
    assert len(probe.runs) >= MIN_SAMPLES + 5
    assert 0 < raw < wall and scaled > 0


def test_forked_returns_the_result_and_reports_failure():
    assert run._forked(sorted, [3, 1, 2]) == [1, 2, 3]
    with pytest.raises(RuntimeError):
        run._forked(int, "not a number")


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-dir")
    assert run.main(["--workload", "derive", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
