"""Command-line front end.

Subcommands: verify-axioms, solve-construction, check-module, classify,
derivations, paper-suite.  Options may come from a YAML config file
(``--config``); command-line flags override file values, which override
defaults.  Reports print as text and can be written to a file as text or
JSON; the exit code is 0 exactly when every check in the report passed.
"""

from __future__ import annotations

import argparse
import random
import sys

import yaml

from .catalog import (
    ALGEBRA_IDS,
    build_algebra,
    build_tsv_lie,
    lie_jacobi_check,
    lie_symbolic_check,
    solve_construction,
)
from .classify import StepFailed, classify_graded, classify_rank1
from .derivations import (
    ad,
    check_derivation,
    d_vec,
    decompose,
    solve_graded_derivations,
)
from .lca import GenPoly, check_all_axioms
from .modules import (
    BitSeq,
    build_graded,
    build_rank1,
    check_module_axioms,
    relations_oracle,
    window_reach,
)
from .poly import GaussianRational, ParseError, parse_scalar
from .report import CheckRecord, Report, timed_check
from .suite import (
    CRITERIA,
    DEFAULT_SEED,
    EXTENSION_POINT,
    criterion_2,
    criterion_4,
    expected_extra_dimension,
    expected_weights,
    graded_faults,
    rank1_faults,
    run_paper_suite,
)


class ConfigError(ValueError):
    """Bad configuration value; the message names the offending field."""


def parse_param(text: str, field: str) -> str | GaussianRational:
    """Parse a parameter: 'sym', a rational 'p/q', or a Gaussian 'p/q+r/si'."""
    if text == "sym":
        return "sym"
    try:
        return parse_scalar(text)
    except ParseError as exc:
        raise ConfigError(f"field {field!r}: cannot parse value {text!r}: {exc}") from exc


def parse_grid(text: str, field: str) -> list[tuple]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"field {field!r}: grid point {chunk!r} is not 'a,b'")
        points.append(
            (parse_param(parts[0].strip(), field), parse_param(parts[1].strip(), field))
        )
    if not points:
        raise ConfigError(f"field {field!r}: empty grid")
    return points


class Options:
    """Merged view of CLI flags, config-file values, and defaults."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        self.cli = vars(args)
        self.defaults = defaults
        self.file: dict = {}
        path = self.cli.get("config")
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    loaded = yaml.safe_load(fh) or {}
            except OSError as exc:
                raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
            except yaml.YAMLError as exc:
                raise ConfigError(f"config file {path!r}: {exc}") from exc
            if not isinstance(loaded, dict):
                raise ConfigError(f"config file {path!r} must hold a key-value map")
            self.file = {str(k).replace("-", "_"): v for k, v in loaded.items()}

    def get(self, key: str):
        value = self.cli.get(key)
        if value is not None:
            return value
        if key in self.file:
            return self.file[key]
        return self.defaults.get(key)

    def snapshot(self, keys) -> dict:
        return {k: str(self.get(k)) for k in keys if self.get(k) is not None}


def _numeric(value, field: str) -> GaussianRational:
    parsed = parse_param(str(value), field)
    if parsed == "sym":
        raise ConfigError(f"field {field!r} must be numeric here")
    return parsed


def _int(value, field: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {field!r} must be an integer, got {value!r}") from exc


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_verify_axioms(opts: Options) -> Report:
    algebra = str(opts.get("algebra"))
    report = Report(
        command="verify-axioms",
        config=opts.snapshot(("algebra", "a", "b", "ap", "bp", "window", "seed")),
    )
    if algebra == "tsv":
        window = _int(opts.get("window"), "window")
        for check_id, claim, check in (
            ("tsv-lie", "anti-symmetry and Jacobi at every index", lie_symbolic_check),
            ("tsv-lie-window", f"the same on |index| <= {window} (window oracle)",
             lambda spec: lie_jacobi_check(spec, window)),
        ):
            with timed_check(report.checks, check_id, claim) as rec:
                lie = check(build_tsv_lie())
                rec.passed = lie.all_zero
                rec.status = "zero" if lie.all_zero else "nonzero"
        return report
    params = {
        key: parse_param(str(opts.get(key)), key)
        for key in ("a", "b", "ap", "bp")
        if opts.get(key) is not None
    }
    spec = build_algebra(algebra, **params)
    with timed_check(
        report.checks,
        f"axioms-{algebra}",
        f"skew pairs and Jacobi triples of {algebra} vanish",
    ) as rec:
        axioms = check_all_axioms(spec)
        samples = []
        for (fa, fb), res in axioms.skew.items():
            if not res.is_zero():
                samples.append(f"skew {fa},{fb}: {res}")
        for (fa, fb, fc), res in axioms.jacobi.items():
            if not res.is_zero():
                samples.append(f"jacobi {fa},{fb},{fc}: {res}")
        rec.passed = axioms.all_zero
        rec.status = "zero" if axioms.all_zero else "nonzero"
        rec.residual_samples = samples[:5]
    return report


def cmd_solve_construction(opts: Options) -> Report:
    report = Report(command="solve-construction", config=opts.snapshot(("seed",)))
    with timed_check(
        report.checks,
        "construction-weights",
        "unique L-on-Y weights closing the bracket table",
    ) as rec:
        sol = solve_construction()
        rec.passed = (sol.ap, sol.bp) == expected_weights()
        rec.status = f"ap = {sol.ap}; bp = {sol.bp}"
        rec.detail = "; ".join(f"[{mono}] {poly}" for mono, poly in sol.equations[:6])
    seed = _int(opts.get("seed"), "seed")
    for record in criterion_2(seed)[2:]:
        report.add(record)
    return report


def _build_module(opts: Options, spec):
    kind = str(opts.get("kind"))
    if kind == "rank1":
        return build_rank1(
            spec,
            parse_param(str(opts.get("alpha")), "alpha"),
            parse_param(str(opts.get("beta")), "beta"),
            parse_param(str(opts.get("c")), "c"),
            parse_param(str(opts.get("d")), "d"),
        )
    if kind == "graded":
        base = str(opts.get("base"))
        if base == "vAb":
            bits_text = opts.get("bitseq")
            if not bits_text:
                raise ConfigError("field 'bitseq': required for the vAb base")
            lo = _int(opts.get("bitseq_lo"), "bitseq_lo")
            try:
                first = BitSeq.from_string(str(bits_text), lo)
            except ValueError as exc:
                raise ConfigError(f"field 'bitseq': {bits_text!r}: {exc}") from exc
        else:
            first = parse_param(str(opts.get("alpha")), "alpha")
        return build_graded(
            spec,
            base if base == "vAb" else "vab",
            first,
            parse_param(str(opts.get("beta")), "beta"),
            parse_param(str(opts.get("d")), "d"),
        )
    raise ConfigError(f"field 'kind': unknown module kind {kind!r}")


def cmd_check_module(opts: Options) -> Report:
    algebra = str(opts.get("algebra"))
    report = Report(
        command="check-module",
        config=opts.snapshot(
            ("algebra", "a", "b", "kind", "base", "alpha", "beta", "c", "d",
             "bitseq", "bitseq_lo", "window", "gen_bound")
        ),
    )
    a = parse_param(str(opts.get("a")), "a")
    b = parse_param(str(opts.get("b")), "b")
    spec = build_algebra(algebra, a=a, b=b)
    module = _build_module(opts, spec)
    n_basis = _int(opts.get("window"), "window")
    k_gen = _int(opts.get("gen_bound"), "gen_bound")
    with timed_check(report.checks, "module-axioms") as rec:
        axioms = check_module_axioms(spec, module, n_basis, k_gen)
        rec.claim = f"module identity residuals over {algebra} ({axioms.checked} instances)"
        rec.passed = axioms.all_zero
        rec.status = "zero" if axioms.all_zero else "nonzero"
        rec.residual_samples = [
            f"{key}: {val}" for key, val in list(axioms.residuals.items())[:3]
        ]
    if module.kind != "rank1" and "Y" in spec.families and a != "sym" and b != "sym":
        with timed_check(report.checks, "relation-oracle") as rec:
            oracle = relations_oracle(module, a, b, n_basis, k_gen)
            rec.claim = (
                f"hand-coded structure-coefficient relations ({oracle.checked} instances)"
            )
            rec.passed = oracle.all_zero == axioms.all_zero
            rec.status = "zero" if oracle.all_zero else "nonzero"
            rec.detail = (
                "oracle agrees with the axiom checker"
                if rec.passed
                else "oracle disagrees with the axiom checker"
            )
    return report


def _families_text(outcome) -> str:
    return "; ".join(f"{fam}: {desc}" for fam, desc in sorted(outcome.families.items()))


def cmd_classify(opts: Options) -> Report:
    kind = str(opts.get("kind"))
    algebra = str(opts.get("algebra"))
    grid = parse_grid(str(opts.get("grid")), "grid")
    degree = _int(opts.get("degree"), "degree")
    seed = _int(opts.get("seed"), "seed")
    report = Report(
        command="classify",
        config=opts.snapshot(
            ("algebra", "kind", "grid", "base", "degree", "window", "gen_bound",
             "seed", "bitseqs")
        ),
    )
    if algebra not in EXTENSION_POINT:
        raise ConfigError(f"field 'algebra': classification targets csv or chv, not {algebra!r}")
    points = [(_numeric(str(a), "grid"), _numeric(str(b), "grid")) for a, b in grid]
    if kind == "rank1":
        for a, b in points:
            with timed_check(
                report.checks, f"rank1-{a}-{b}", f"rank-one families over {algebra}({a},{b})"
            ) as rec:
                try:
                    outcome = classify_rank1(algebra, a, b, degree)
                except StepFailed as exc:
                    _step_failed(rec, exc)
                    continue
                faults = rank1_faults(outcome)
                rec.status = _families_text(outcome)
                rec.passed = not faults
                rec.detail = "; ".join(faults) or (
                    "extension family" if outcome.has_extension else "trivial tails only"
                )
        return report
    if kind != "graded":
        raise ConfigError(f"field 'kind': unknown classification kind {kind!r}")
    n_basis = _int(opts.get("window"), "window")
    k_gen = _int(opts.get("gen_bound"), "gen_bound")
    base = str(opts.get("base"))
    rng = random.Random(seed)
    n_seqs = _int(opts.get("bitseqs"), "bitseqs")
    least = 1 if base == "vAb" else 0
    if n_seqs < least:
        raise ConfigError(f"field 'bitseqs' must be >= {least} for base {base}, got {n_seqs}")
    reach = window_reach(n_basis, k_gen)
    bitseqs = [BitSeq.random(rng, -reach, reach) for _ in range(n_seqs)]
    bases: list[tuple[str, BitSeq | None]] = []
    if base in ("vab", "both"):
        bases.append(("vab", None))
    if base in ("vAb", "both"):
        bases.extend(("vAb", bits) for bits in bitseqs)
    for a, b in points:
        for base_kind, bits in bases:
            tag = base_kind if bits is None else f"{base_kind}-{bits.to_string()}"
            with timed_check(
                report.checks,
                f"graded-{a}-{b}-{tag}",
                f"graded families over {algebra}({a},{b}), base {base_kind}",
            ) as rec:
                try:
                    outcome = classify_graded(
                        algebra, a, b, base_kind, degree, n_basis, k_gen, bitseq=bits
                    )
                except StepFailed as exc:
                    _step_failed(rec, exc)
                    continue
                faults = graded_faults(outcome, bits, n_basis, k_gen)
                rec.status = _families_text(outcome)
                rec.passed = not faults
                rec.detail = "; ".join(faults) or (
                    "extension collapsed by case mixing" if outcome.collapsed else outcome.note
                )
    return report


def _step_failed(rec: CheckRecord, exc: StepFailed) -> None:
    """Record a classifier run that stopped at a failed step, with its trace."""
    rec.passed = False
    rec.status = str(exc)
    rec.detail = exc.trace


def cmd_derivations(opts: Options) -> Report:
    task = str(opts.get("task"))
    algebra = str(opts.get("algebra"))
    report = Report(
        command="derivations",
        config=opts.snapshot(
            ("algebra", "task", "a", "b", "grading", "degree", "window", "seed")
        ),
    )
    degree_bound = _int(opts.get("degree"), "degree")
    window = _int(opts.get("window"), "window")
    grading = _int(opts.get("grading"), "grading")
    if task == "dvec-check":
        a = parse_param(str(opts.get("a")), "a")
        b = parse_param(str(opts.get("b")), "b")
        spec = build_algebra(algebra, a=a, b=b)
        with timed_check(
            report.checks,
            "dvec-leibniz",
            f"Leibniz residuals of the M-valued family on {algebra}(a={a}, b={b})",
            detail="a derivation exactly when a = 1",
        ) as rec:
            deriv = d_vec(spec, {grading: GaussianRational.of(1)}, window=3)
            leibniz = check_derivation(spec, deriv)
            rec.passed = leibniz.all_zero == (expected_extra_dimension(a) == 1)
            rec.status = "zero" if leibniz.all_zero else "nonzero"
        return report
    if task == "solve":
        a = _numeric(opts.get("a"), "a")
        b = _numeric(opts.get("b"), "b")
        spec = build_algebra(algebra, a=a, b=b)
        with timed_check(
            report.checks, "graded-solve", f"degree-{grading} derivations of {algebra}({a},{b})"
        ) as rec:
            result = solve_graded_derivations(spec, grading, degree_bound, window)
            rec.passed = result.extra_dimension == expected_extra_dimension(a)
            rec.status = (
                f"dim {result.dimension} = inner {result.inner_rank} + "
                f"extra {result.extra_dimension}"
            )
            ker_b = result.kernel_b_dimension
            rec.detail = (
                f"dim ker(block 0) {result.kernel0_dimension}, dim ker B "
                f"{'none (index 0 only)' if ker_b is None else ker_b}; {result.scope_note}"
            )
        return report
    if task == "dichotomy":
        for record in criterion_4():
            report.add(record)
        return report
    if task == "decompose":
        a = _numeric(opts.get("a"), "a")
        b = _numeric(opts.get("b"), "b")
        spec = build_algebra(algebra, a=a, b=b)
        with timed_check(
            report.checks,
            "decompose-roundtrip",
            f"decompose(ad(M_{grading})) over {algebra}({a},{b})",
        ) as rec:
            x = GenPoly.unit("M", grading)
            dec = decompose(spec, ad(spec, x, window=window + 1), bound=degree_bound)
            rec.passed = dec.x == x and not dec.q
            rec.status = f"x = {dec.x}; q = {dec.q}"
        return report
    raise ConfigError(f"field 'task': unknown derivations task {task!r}")


def cmd_paper_suite(opts: Options) -> Report:
    seed = _int(opts.get("seed"), "seed")
    only_text = opts.get("only")
    only = None
    if only_text:
        try:
            only = [int(x) for x in str(only_text).split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"field 'only': {only_text!r}") from exc
        unknown = [n for n in only if n not in CRITERIA]
        if unknown:
            raise ConfigError(
                f"field 'only': unknown criteria {unknown}; the known criteria are "
                f"{', '.join(map(str, CRITERIA))}"
            )
    return run_paper_suite(seed=seed, only=only)


# ---------------------------------------------------------------------------


DEFAULTS = {
    "a": "sym",
    "b": "sym",
    "alpha": "sym",
    "beta": "sym",
    "c": "sym",
    "d": "0",
    "base": "vab",
    "kind": "rank1",
    "task": "solve",
    "grid": "0,0;1,0;0,1;2,5;1,1",
    "window": 3,
    "gen_bound": 2,
    "degree": 6,
    "grading": 0,
    "seed": DEFAULT_SEED,
    "bitseqs": 3,
    "bitseq_lo": -9,
    "format": "text",
}

COMMANDS = {
    "verify-axioms": cmd_verify_axioms,
    "solve-construction": cmd_solve_construction,
    "check-module": cmd_check_module,
    "classify": cmd_classify,
    "derivations": cmd_derivations,
    "paper-suite": cmd_paper_suite,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file (CLI flags override it)")
    common.add_argument("--algebra", choices=ALGEBRA_IDS)
    common.add_argument("--a", help="rational p/q, Gaussian p/q+r/si, or 'sym'")
    common.add_argument("--b")
    common.add_argument("--ap")
    common.add_argument("--bp")
    common.add_argument("--window", type=int, help="basis index window")
    common.add_argument("--gen-bound", dest="gen_bound", type=int)
    common.add_argument("--degree", type=int, help="polynomial degree bound")
    common.add_argument("--seed", type=int)
    common.add_argument("--report", help="write the report to this path")
    common.add_argument("--format", choices=("text", "json"))

    parser = argparse.ArgumentParser(
        prog="confalg",
        description="exact verification toolkit for Schroedinger-Virasoro "
        "type Lie conformal algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify-axioms", parents=[common])
    sub.add_parser("solve-construction", parents=[common])
    cm = sub.add_parser("check-module", parents=[common])
    cm.add_argument("--kind", choices=("rank1", "graded"))
    cm.add_argument("--base", choices=("vab", "vAb"))
    cm.add_argument("--alpha")
    cm.add_argument("--beta")
    cm.add_argument("--c")
    cm.add_argument("--d")
    cm.add_argument("--bitseq")
    cm.add_argument("--bitseq-lo", dest="bitseq_lo", type=int)
    cl = sub.add_parser("classify", parents=[common])
    cl.add_argument("--kind", choices=("rank1", "graded"))
    cl.add_argument("--base", choices=("vab", "vAb", "both"))
    cl.add_argument("--grid")
    cl.add_argument("--bitseqs", type=int, help="number of seeded random bit sequences")
    dv = sub.add_parser("derivations", parents=[common])
    dv.add_argument("--task", choices=("dvec-check", "solve", "dichotomy", "decompose"))
    dv.add_argument("--grading", type=int, help="grading degree of the derivation")
    ps = sub.add_parser("paper-suite", parents=[common])
    ps.add_argument("--only", help="comma-separated criterion numbers")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = Options(args, DEFAULTS)
        report = COMMANDS[args.command](opts)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_text())
    path = opts.get("report")
    if path:
        fmt = str(opts.get("format"))
        payload = report.to_json() if fmt == "json" else report.to_text()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
