#!/usr/bin/env python3
"""confalg benchmark: warm verdict latency per workload, cold set-up time,
and a traced run that reports per-layer counts and times.

Run from the repository root:

    python3 perfbench/run.py --workload derive --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json for
``--seconds`` seconds; its times are scaled to a reference speed of the
host, measured by ``probe.Probe`` while they run.  ``--trace 1`` reports
its per-layer metrics from a fixed, seed-determined set of cases, so that
its counts repeat exactly; the cases are answered untraced and traced, each
pass in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``record`` with the provenance of the run (git SHA, source hash,
Python version, core count), the sample count, and why the workload
exists.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from probe import REFERENCE_S, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CERT_DEGREE = 6
#: cold set-ups timed per run, spread evenly over it
SETUP_SAMPLES = 3
CHILD_SETUP = (
    "import json, probe\n"
    "with probe.Probe() as p:\n"
    "    mark = p.mark()\n"
    "    import confalg.classify\n"
    f"    confalg.classify.certify_self_commuting_d_free({CERT_DEGREE})\n"
    "    print(json.dumps(p.since(mark)))\n"
)

#: the percentile reported as ``verdict_ms.p90``: fixed per workload so that
#: every run reports the same one, and low enough that ten samples lie
#: beyond it at the lowest verdict count seen in a 40 s run (24 on derive,
#: 46 on modules, 69 on symbolic; NOTES.md)
TAIL_LEVEL = {"derive": 60, "modules": 75, "symbolic": 85}

#: cases in a traced run: fixed per workload so that counts repeat exactly;
#: each list takes about 8-12 s untraced on a 2-core 2.1 GHz Xeon VM
TRACE_CASES = {"derive": 12, "modules": 24, "symbolic": 30}

#: ROADMAP's wide tier: csv(1,0) at degree 0, (image degree bound, window)
WIDE_TIER = ((4, 2), (6, 4), (8, 4))

END_TO_END = {
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "poly.mul.calls": "count",
    "poly.mul.term_pairs": "count",
    "poly.mul.s": "s",
    "poly.substitute.calls": "count",
    "poly.substitute.s": "s",
    "poly.shift.calls": "count",
    "poly.pow.calls": "count",
    "poly.scalar_mul.calls": "count",
    "poly.scalar_add.calls": "count",
    "linsolve.reduce_rows.calls": "count",
    "linsolve.reduce_rows.s": "s",
    "linsolve.reduce_rows.rows": "count",
    "linsolve.reduce_rows.cols": "count",
    "linsolve.reduce_rows.nnz": "count",
    "linsolve.reduce_rows.rank": "count",
    "linsolve.useful_row_share": "ratio",
    "lca.conformal_bracket.calls": "count",
    "lca.conformal_bracket.s": "s",
    "lca.check_jacobi.s": "s",
    "derivations.solve_graded_derivations.s": "s",
    "derivations.solve_graded_derivations.self_s": "s",
    "derivations.check_derivation.s": "s",
    "modules.check_module_axioms.s": "s",
    "modules.check_module_axioms.self_s": "s",
    "modules.check_module_axioms.checked": "count",
    "modules.relations_oracle.s": "s",
    "classify.classify_graded.s": "s",
    "classify.classify_rank1.s": "s",
    "classify.steps": "count",
    "classify.certify_self_commuting_d_free.s": "s",
    "catalog.solve_construction.s": "s",
    "catalog.build.s": "s",
    "runtime.gc_collections": "count",
    "runtime.gc_s": "s",
    "trace.overhead": "ratio",
}

#: why each workload exists and what a change to one layer should do to it
WORKLOADS = {
    "derive": {
        "input": "one verdict per point of criterion 4's 5x3 weight grid and "
        "degrees -1..1: graded derivation solves of csv and of chv there, image "
        "degree 4, window 2",
        "why": "the largest Tier-1 cost: row building in derivations (mostly poly "
        "products) and linsolve elimination; modules and classify do no work here",
        "should_move": {
            "verdict_ms.p50": ["poly.mul.s", "poly.mul.term_pairs",
                               "derivations.solve_graded_derivations.self_s",
                               "linsolve.reduce_rows.s"],
        },
        "should_not_move": ["modules.check_module_axioms.s", "classify.classify_graded.s"],
    },
    "modules": {
        "input": "one graded module per verdict (vab, vAb with random, all-0 and "
        "all-1 bits) over criterion 7's grid for csv and chv, window n=3, k=2: "
        "classify_graded, check_module_axioms, relations_oracle, classify_rank1",
        "why": "heavy on substitute and shift with no sizeable linear system: "
        "substitute memoization and one module-identity kernel show here, a "
        "linsolve change should not",
        "should_move": {
            "verdict_ms.p50": ["poly.substitute.s", "poly.shift.calls",
                               "modules.check_module_axioms.self_s",
                               "modules.relations_oracle.s",
                               "classify.classify_graded.s", "classify.classify_rank1.s"],
        },
        "should_not_move": ["linsolve.reduce_rows.s"],
    },
    "symbolic": {
        "input": "the poly and lca layers with parameter variables and non-real "
        "coefficients, one verdict of each kind per round: symbolic axiom checks, "
        "the construction solve with Gaussian Jacobi samples, d_vec Leibniz "
        "checks with symbolic b, graded module checks with symbolic beta and d, "
        "derivation solves of csv and chv at non-real weights",
        "why": "a real-only fast path or a fixed-order packed monomial that wins "
        "on derive can lose here; this is where that loss would show",
        "should_move": {
            "verdict_ms.p50": ["lca.conformal_bracket.s", "lca.check_jacobi.s",
                               "derivations.check_derivation.s",
                               "derivations.solve_graded_derivations.s",
                               "catalog.solve_construction.s", "catalog.build.s"],
        },
        "should_not_move": ["classify.classify_graded.s", "modules.relations_oracle.s"],
        "must_not_worsen": ["verdict_ms.p50", "poly.mul.s", "poly.substitute.s"],
    },
}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "confalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _setup_in_child() -> tuple[float, float]:
    """Import confalg and run the one-time certificate in a fresh process,
    with the probe running there: raw seconds and seconds at reference speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    done = subprocess.run(
        [sys.executable, "-c", CHILD_SETUP],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150, check=True,
    )
    raw, scaled = json.loads(done.stdout.splitlines()[-1])
    return raw, scaled


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def tail(samples: list[float], level: int) -> tuple[float, int]:
    """The ``level``-th percentile and the number of samples beyond it."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[level - 1]
    return value, sum(s > value for s in samples)


def run_cases(cases) -> tuple[list, float]:
    """Answer a fixed list of cases; a failure is recorded by its exception name."""
    observed = []
    t0 = time.perf_counter()
    for case in cases:
        try:
            observed.append(case.run())
        except Exception as exc:  # noqa: BLE001 - a failed call is a result here
            traceback.print_exc(file=sys.stderr)
            observed.append(f"raised {type(exc).__name__}")
    return observed, time.perf_counter() - t0


def _judge(cases, observed) -> tuple[int, int]:
    failed = sum(isinstance(obs, str) for obs in observed)
    wrong = 0
    for case, obs in zip(cases, observed):
        if not isinstance(obs, str) and not case.check(obs):
            wrong += 1
            print(f"wrong verdict: {case} -> {obs}", file=sys.stderr)
    return wrong, failed


def _repeat_share(cases) -> float:
    """Share of cases equal to an earlier case of the same run."""
    return 1.0 - len(set(cases)) / len(cases)


def _loop(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop, one client: the next verdict starts when the last one ends.

    The run lasts ``seconds``.  It is paused ``SETUP_SAMPLES`` times, evenly
    spread, to time a cold set-up in a fresh process; pauses are not
    verdict time.  The probe runs only while a verdict does.
    """
    import workloads

    cases = workloads.schedule(workload, seed)
    rss_at_start = _rss_mb()
    probe = Probe()
    with probe:
        probe.warm_up()
    raw_ms: list[float] = []
    latencies: list[float] = []
    setup_raw: list[float] = []
    setup: list[float] = []
    answered = []
    wrong = failed = 0
    start = time.perf_counter()
    while ((elapsed := time.perf_counter() - start) < seconds
           or len(setup) < SETUP_SAMPLES or len(latencies) < 2):
        if len(setup) < SETUP_SAMPLES and elapsed >= seconds * len(setup) / SETUP_SAMPLES:
            raw_s, setup_s = _setup_in_child()
            setup_raw.append(raw_s)
            setup.append(setup_s)
            continue
        case = next(cases)
        answered.append(case)
        with probe:
            mark = probe.mark()
            observed, _ = run_cases([case])
            raw_s, scaled_s = probe.since(mark)
        w, f = _judge([case], observed)
        wrong += w
        failed += f
        if not f:
            raw_ms.append(raw_s * 1000.0)
            latencies.append(scaled_s * 1000.0)
    return {
        "latencies": latencies,
        "raw_ms": raw_ms,
        "setup": setup,
        "setup_raw": setup_raw,
        "answered": len(answered),
        "repeated_input_share": _repeat_share(answered),
        "wrong": wrong,
        "failed": failed,
        "probe_runs": len(probe.runs),
        "probe_median_s": statistics.median(probe.runs),
        "rss_at_start": rss_at_start,
        "peak_rss_mb": _rss_mb(),
    }


def _forked(fn, *args) -> dict:
    """Run ``fn(*args)`` in a forked copy of this process; return its result.

    The copy starts with this process's current resident memory, not its
    peak, so its ``ru_maxrss`` is the peak of ``fn`` alone.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 1
        try:
            with os.fdopen(write, "w") as out:
                json.dump(fn(*args), out)
            code = 0
        except BaseException:  # noqa: BLE001 - reported through the exit code
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"the measuring process exited with status {status}")
    return json.loads(data)


def measure(workload: str, seed: int, seconds: float, record: dict) -> tuple[dict, int, int, int]:
    """Time the verdicts of one workload, warm, in a process of their own.

    confalg is imported here, and the certificate is run here when the
    workload calls it (modules); the verdict loop then runs in a forked
    copy, so that ``peak_rss_mb`` is the peak of the verdicts, not of the
    certificate.
    """
    import workloads  # noqa: F401 - imported before the fork
    from confalg import classify

    if workload == "modules":
        classify.certify_self_commuting_d_free(CERT_DEGREE)
    gc.collect()
    out = _forked(_loop, workload, seed, seconds)
    latencies = out["latencies"]
    if len(latencies) < 2:
        raise RuntimeError("fewer than two verdicts completed")
    level = TAIL_LEVEL[workload]
    tail_ms, beyond = tail(latencies, level)
    record.update(
        samples=len(latencies),
        verdict_ms_p90_is=f"p{level}",
        samples_beyond_tail=beyond,
        wrong_verdicts=out["wrong"],
        failed_share=out["failed"] / out["answered"],
        repeated_input_share=out["repeated_input_share"],
        raw_verdict_ms_p50=statistics.median(out["raw_ms"]),
        raw_verdict_ms_tail=tail(out["raw_ms"], level)[0],
        setup_samples_s=out["setup"],
        raw_setup_samples_s=out["setup_raw"],
        probe_runs=out["probe_runs"],
        host_speed=REFERENCE_S / out["probe_median_s"],
        rss_mb_at_loop_start=out["rss_at_start"],
        loop="closed loop, one client, one thread",
    )
    metrics = {
        "verdict_ms.p50": statistics.median(latencies),
        "verdict_ms.p90": tail_ms,
        "verdicts_per_s": len(latencies) / (sum(latencies) / 1000.0),
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": statistics.median(out["setup"]),
    }
    return metrics, out["answered"], out["failed"], out["wrong"]


# ---------------------------------------------------------------------------
# traced run: each pass in its own process, so that no pass can reuse what
# another one left in confalg's caches
# ---------------------------------------------------------------------------


def _canonical(observed) -> str:
    return json.dumps(observed, default=str)


def answer_cases(workload: str, seed: int, count: int, traced: bool) -> dict:
    """One pass over a fixed, seed-determined list of cases (child process)."""
    import workloads
    from confalg import classify
    from tracing import Tracer

    setup_tracer, tracer = Tracer(), Tracer()
    with setup_tracer if traced else nullcontext():
        classify.certify_self_commuting_d_free(CERT_DEGREE)
    cases = list(islice(workloads.schedule(workload, seed), count))
    with tracer if traced else nullcontext():
        observed, seconds = run_cases(cases)
    wrong, failed = _judge(cases, observed)
    out = {
        "cases": len(cases),
        "seconds": seconds,
        "wrong": wrong,
        "failed": failed,
        "repeated_input_share": _repeat_share(cases),
        "verdicts": [_canonical(obs) for obs in observed],
    }
    if traced:
        metrics = {name: tracer.metric(name) for name in PER_LAYER}
        metrics["classify.certify_self_commuting_d_free.s"] += setup_tracer.metric(
            "classify.certify_self_commuting_d_free.s"
        )
        rows = metrics["linsolve.reduce_rows.rows"]
        metrics["linsolve.useful_row_share"] = (
            metrics["linsolve.reduce_rows.rank"] / rows if rows else 0.0
        )
        out.update(metrics=metrics, counts=tracer.deterministic_counts())
    return out


def wide_solve(bound: int, window: int, traced: bool) -> dict:
    """One csv(1,0) solve at degree 0 of ROADMAP's wide tier (child process).

    Traced, row building is the self time of solve_graded_derivations and
    elimination is every reduce_rows call it made.
    """
    from confalg import catalog, derivations
    from tracing import Tracer

    spec = catalog.build_csv(1, 0)
    if not traced:
        t0 = time.perf_counter()
        derivations.solve_graded_derivations(spec, 0, bound, window)
        return {"untraced_s": time.perf_counter() - t0}
    with Tracer() as tracer:
        derivations.solve_graded_derivations(spec, 0, bound, window)
    return {
        "row_building_s": tracer.metric("derivations.solve_graded_derivations.self_s"),
        "elimination_s": tracer.metric("linsolve.reduce_rows.s"),
        # the Leibniz system; the other reduce_rows calls rank the inner vectors
        **max(tracer.systems, key=lambda shape: shape["rows"]),
    }


def _child(*args: str) -> dict:
    """Run this script in a fresh process and return its JSON result."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"child {args} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def trace(workload: str, seed: int, record: dict) -> tuple[dict, int, int, int]:
    """Answer the same fixed cases untraced and traced, in two processes."""
    common = ["--workload", workload, "--seed", str(seed)]
    plain = _child("--role", "cases", "--traced", "0", *common)
    traced = _child("--role", "cases", "--traced", "1", *common)
    mismatched = sum(p != t for p, t in zip(plain["verdicts"], traced["verdicts"]))
    metrics = traced["metrics"]
    metrics["trace.overhead"] = traced["seconds"] / plain["seconds"]
    wrong = plain["wrong"] + traced["wrong"]
    record.update(
        cases=plain["cases"],
        untraced_s=plain["seconds"],
        traced_s=traced["seconds"],
        repeated_input_share=plain["repeated_input_share"],
        traced_untraced_mismatches=mismatched,
        wrong_verdicts=wrong,
        counts=traced["counts"],
    )
    if workload == "derive":
        record["wide_tier"] = [
            {"bound": bound, "window": window,
             **_child("--role", "wide", "--traced", "0", "--bound", str(bound),
                      "--window", str(window)),
             **_child("--role", "wide", "--traced", "1", "--bound", str(bound),
                      "--window", str(window))}
            for bound, window in WIDE_TIER
        ]
    return (metrics, 2 * plain["cases"], plain["failed"] + traced["failed"],
            wrong + mismatched)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    # one pass of a traced run, in a process of its own
    parser.add_argument("--role", choices=("cases", "wide"), help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    parser.add_argument("--bound", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--window", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "confalg" / "__init__.py").is_file():
        print(f"confalg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.role == "cases":
        print(json.dumps(answer_cases(
            args.workload, args.seed, TRACE_CASES[args.workload], bool(args.traced)
        )))
        return 0
    if args.role == "wide":
        print(json.dumps(wide_solve(args.bound, args.window, bool(args.traced))))
        return 0
    missing = [name for name in ("workload", "seed", "seconds", "trace")
               if getattr(args, name) is None]
    if missing:
        parser.error("missing --" + ", --".join(missing))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **_provenance(), **WORKLOADS[args.workload]}
    if args.trace:
        values, attempted, failed, wrong = trace(args.workload, args.seed, record)
        units = PER_LAYER
    else:
        values, attempted, failed, wrong = measure(
            args.workload, args.seed, args.seconds, record
        )
        units = END_TO_END
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
