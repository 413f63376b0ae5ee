"""Command-line front end.

Subcommands: verify-axioms, solve-construction, check-module, classify,
derivations, paper-suite.  Options may come from a YAML config file
(``--config``) whose keys are the subcommand's flag names; its entries are
parsed as flags, placed before the command line's own, so they are checked
as flags are and command-line flags override them.

One rule settles every run option (each option but ``--config``,
``--report`` and ``--format``).  A run first works out the options it
reads: those of its command, of its ``--kind``, ``--base`` or ``--task``,
and the parameters of the algebra's ``catalog.CATALOG`` row.  Each one it
reads and is not given takes its ``DEFAULTS`` value; each one it does not
read and is given is refused, so a value is never accepted and then
ignored.  The report's ``config`` holds exactly the options the run reads
that have a value.  A task that judges the algebra by a catalog claim first
refuses an algebra without one (``catalog.claim``).  Reports print as text
and can be written to a file as text or JSON; the exit code is 0 exactly
when every check in the report passed.
"""

from __future__ import annotations

import argparse
import random
import sys

import yaml

from .catalog import (
    CATALOG,
    CatalogRow,
    build_algebra,
    claim,
    claimed,
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
    MODULE_PARAMS,
    BitSeq,
    build_module,
    check_module_axioms,
    relations_oracle,
    window_reach,
)
from .poly import GaussianRational, ParseError, parse_scalar
from .report import CheckRecord, Report, timed_check
from .suite import (
    C4_BOUND,
    C4_WINDOW,
    CRITERIA,
    DEFAULT_SEED,
    c4_dichotomy,
    criterion_2,
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


def _algebra(args: argparse.Namespace, kind: str | None = None) -> tuple[str, CatalogRow]:
    """The ``--algebra`` value, which the command cannot run without, and its
    catalog row; with ``kind``, an algebra without a claim of that kind
    (``catalog.claim``) is refused."""
    if args.algebra is None:
        raise ConfigError(f"field 'algebra': required by {args.command}")
    if kind is not None:
        claim(args.algebra, kind)
    return args.algebra, CATALOG[args.algebra]


def _settle(args: argparse.Namespace, reads: tuple[str, ...], refusal: str) -> dict:
    """Settle every run option of ``args`` by what the run ``reads``, and
    return the report's ``config``: each option read that has a value, as
    text.

    An option read and not given takes its ``DEFAULTS`` value (if it has
    one); an option not read and given is refused with ``refusal``,
    formatted with the option's ``key``.  The options are walked in the
    parser's order, the command's own before the shared ones.
    """
    config = {}
    for key, value in vars(args).items():
        if key in ("command", "config", "report", "format"):
            continue
        if key in reads and value is None:
            value = DEFAULTS.get(key)
            setattr(args, key, value)
        if value is None:
            continue
        if key not in reads:
            raise ConfigError(f"field {key!r}: {refusal.format(key=key)}")
        config[key] = str(value)
    return config


def _params(args: argparse.Namespace, keys: tuple[str, ...], parse=parse_param) -> dict:
    """The options ``keys``, each parsed by ``parse``."""
    return {key: parse(getattr(args, key), key) for key in keys}


def _numeric(value: str, field: str) -> GaussianRational:
    parsed = parse_param(value, field)
    if parsed == "sym":
        raise ConfigError(f"field {field!r} must be numeric here")
    return parsed


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_verify_axioms(args: argparse.Namespace) -> Report:
    algebra, row = _algebra(args)
    report = Report(
        command="verify-axioms",
        config=_settle(args, ("algebra", *row.params), f"the {algebra} check reads no {{key}}"),
    )
    if row.lie:
        with timed_check(
            report.checks, f"{algebra}-lie", "anti-symmetry and Jacobi at every index"
        ) as rec:
            lie = lie_symbolic_check(row.build())
            rec.passed = lie.all_zero
            rec.status = "zero" if lie.all_zero else "nonzero"
        return report
    spec = build_algebra(algebra, **_params(args, row.params))
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


def cmd_solve_construction(args: argparse.Namespace) -> Report:
    report = Report(
        command="solve-construction",
        config=_settle(args, (), "the construction solve reads no {key}"),
    )
    with timed_check(
        report.checks,
        "construction-weights",
        "unique L-on-Y weights closing the bracket table",
    ) as rec:
        sol = solve_construction()
        rec.passed = (sol.ap, sol.bp) == expected_weights()
        rec.status = f"ap = {sol.ap}; bp = {sol.bp}"
        rec.detail = "; ".join(f"[{mono}] {poly}" for mono, poly in sol.equations[:6])
    for record in criterion_2()[2:]:
        report.add(record)
    return report


def _build_module(args: argparse.Namespace, spec, kind: str):
    bits = None
    if kind == "graded-vAb":
        if not args.bitseq:
            raise ConfigError("field 'bitseq': required for the vAb base")
        try:
            bits = BitSeq.from_string(args.bitseq, args.bitseq_lo)
        except ValueError as exc:
            raise ConfigError(f"field 'bitseq': {args.bitseq!r}: {exc}") from exc
    return build_module(spec, kind, _params(args, MODULE_PARAMS[kind]), bits)


def cmd_check_module(args: argparse.Namespace) -> Report:
    algebra, row = _algebra(args)
    kind = "rank1"
    if (args.kind or DEFAULTS["kind"]) == "graded":
        kind = f"graded-{args.base or DEFAULTS['base']}"
    reads = ("algebra", "kind", *row.params, *MODULE_PARAMS[kind])
    if kind != "rank1":
        reads += ("base", "window", "gen_bound")
    if kind == "graded-vAb":
        reads += ("bitseq", "bitseq_lo")
    report = Report(
        command="check-module",
        config=_settle(args, reads, f"module {kind} reads no {{key}}"),
    )
    params = _params(args, row.params)
    spec = build_algebra(algebra, **params)
    module = _build_module(args, spec, kind)
    window = () if kind == "rank1" else (args.window, args.gen_bound)
    with timed_check(report.checks, "module-axioms") as rec:
        axioms = check_module_axioms(spec, module, *window)
        rec.claim = f"module identity residuals over {algebra} ({axioms.checked} instances)"
        rec.passed = axioms.all_zero
        rec.status = "zero" if axioms.all_zero else "nonzero"
        rec.residual_samples = [
            f"{key}: {val}" for key, val in list(axioms.residuals.items())[:3]
        ]
    if kind != "rank1" and row.oracle and "sym" not in params.values():
        with timed_check(report.checks, "relation-oracle") as rec:
            oracle = relations_oracle(module, params["a"], params["b"], *window)
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


def cmd_classify(args: argparse.Namespace) -> Report:
    algebra, _ = _algebra(args, "extension_point")
    rank1 = (args.kind or DEFAULTS["kind"]) == "rank1"
    reads = ("algebra", "kind", "grid", "degree")
    if rank1:
        refusal = "the rank-one classification reads no {key}"
    else:
        base = args.base or DEFAULTS["base"]
        reads += ("base", "window", "gen_bound", *(("seed", "bitseqs") if base != "vab" else ()))
        refusal = f"the graded classification on base {base} reads no {{key}}"
    report = Report(command="classify", config=_settle(args, reads, refusal))
    grid = parse_grid(args.grid, "grid")
    points = [(_numeric(str(a), "grid"), _numeric(str(b), "grid")) for a, b in grid]
    if rank1:
        for a, b in points:
            with timed_check(
                report.checks, f"rank1-{a}-{b}", f"rank-one families over {algebra}({a},{b})"
            ) as rec:
                try:
                    outcome = classify_rank1(algebra, a, b, args.degree)
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
    bases: list[tuple[str, BitSeq | None]] = []
    if base in ("vab", "both"):
        bases.append(("vab", None))
    if base in ("vAb", "both"):
        n_seqs = args.bitseqs
        least = 1 if base == "vAb" else 0
        if n_seqs < least:
            raise ConfigError(f"field 'bitseqs' must be >= {least} for base {base}, got {n_seqs}")
        rng = random.Random(args.seed)
        reach = window_reach(args.window, args.gen_bound)
        bases.extend(("vAb", BitSeq.random(rng, -reach, reach)) for _ in range(n_seqs))
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
                        algebra, a, b, base_kind, args.degree, args.window, args.gen_bound,
                        bitseq=bits,
                    )
                except StepFailed as exc:
                    _step_failed(rec, exc)
                    continue
                faults = graded_faults(outcome, bits, args.window, args.gen_bound)
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


def cmd_derivations(args: argparse.Namespace) -> Report:
    task = args.task or DEFAULTS["task"]
    if task == "dichotomy":
        return _dichotomy(args)
    algebra, row = _algebra(args, "extra_at_a1" if task == "solve" else "m_family")
    reads = ("algebra", "task", "grading", *row.params)
    if task != "dvec-check":
        reads += ("degree", "window")
    window_given = args.window is not None
    report = Report(
        command="derivations",
        config=_settle(args, reads, f"the {task} task reads no {{key}}"),
    )
    grading = args.grading
    params = _params(args, row.params, parse_param if task == "dvec-check" else _numeric)
    expected = expected_extra_dimension(algebra, params.get("a"))
    spec = build_algebra(algebra, **params)
    if spec.index0_only and "window" in reads and not window_given:
        # an index-0 algebra has window 0 alone, so the window read defaults to it
        args.window = 0
        report.config["window"] = "0"
    named = f"{algebra}({','.join(map(str, params.values()))})" if params else algebra
    if task == "dvec-check":
        with timed_check(
            report.checks,
            "dvec-leibniz",
            f"Leibniz residuals of the M-valued family on {named}",
            detail="a derivation exactly when a = 1",
        ) as rec:
            # an index-0 algebra has window 0 alone
            deriv = d_vec(
                spec, {grading: GaussianRational.of(1)}, window=0 if spec.index0_only else 3
            )
            leibniz = check_derivation(spec, deriv)
            rec.passed = leibniz.all_zero == (expected == 1)
            rec.status = "zero" if leibniz.all_zero else "nonzero"
        return report
    if task == "solve":
        with timed_check(
            report.checks, "graded-solve", f"degree-{grading} derivations of {named}"
        ) as rec:
            result = solve_graded_derivations(spec, grading, args.degree, args.window)
            rec.passed = result.extra_dimension == expected
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
    # the --task choices leave decompose
    with timed_check(
        report.checks,
        "decompose-roundtrip",
        f"decompose(ad(M_{grading})) over {named}",
    ) as rec:
        x = GenPoly.unit("M", grading)
        window = args.window if spec.index0_only else args.window + 1
        dec = decompose(spec, ad(spec, x, window=window), bound=args.degree)
        rec.passed = dec.x == x and not dec.q
        rec.status = f"x = {dec.x}; q = {dec.q}"
    return report


def _dichotomy(args: argparse.Namespace) -> Report:
    """Criterion 4 on ``--algebra``, or on every algebra with a ``c4`` claim
    when it is not given; the report's ``config`` holds the image degree and
    window that criterion 4 solves at, and every other option given is
    refused."""
    if args.algebra is not None:
        claim(args.algebra, "c4")
    config = _settle(
        args,
        ("algebra", "task"),
        "c4 fixes it; the dichotomy runs criterion 4 over its weight grid and "
        f"degrees -1..1 at image degree {C4_BOUND} and window {C4_WINDOW}",
    )
    report = Report(
        command="derivations",
        config={**config, "degree": str(C4_BOUND), "window": str(C4_WINDOW)},
    )
    for name in [args.algebra] if args.algebra else claimed("c4"):
        report.add(c4_dichotomy(name))
    return report


def cmd_paper_suite(args: argparse.Namespace) -> Report:
    # the suite writes its own config, the seed
    _settle(args, ("only", "seed"), "the paper suite reads no {key}")
    only = None
    if args.only:
        try:
            only = [int(x) for x in args.only.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"field 'only': {args.only!r}") from exc
        unknown = [n for n in only if n not in CRITERIA]
        if unknown:
            raise ConfigError(
                f"field 'only': unknown criteria {unknown}; the known criteria are "
                f"{', '.join(map(str, CRITERIA))}"
            )
    return run_paper_suite(seed=args.seed, only=only)


# ---------------------------------------------------------------------------


#: the value a run option that the run reads takes when it is not given
DEFAULTS = {
    "a": "sym",
    "b": "sym",
    "ap": "sym",
    "bp": "sym",
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
    """The flag parser.  It sets no defaults, so a run can tell a given
    option from one not given; each subcommand's own options come before
    the shared ones, the order in which ``_settle`` walks them."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file (CLI flags override it)")
    common.add_argument("--algebra", choices=CATALOG)
    common.add_argument("--a", help="rational p/q, Gaussian p/q+r/si, or 'sym'")
    common.add_argument("--b")
    common.add_argument("--ap")
    common.add_argument("--bp")
    common.add_argument("--window", type=int, help="basis index window")
    common.add_argument("--gen-bound", type=int)
    common.add_argument("--degree", type=int, help="polynomial degree bound")
    common.add_argument("--seed", type=int)
    common.add_argument("--report", help="write the report to this path")
    common.add_argument("--format", choices=("text", "json"))
    own = {command: argparse.ArgumentParser(add_help=False) for command in COMMANDS}
    cm = own["check-module"]
    cm.add_argument("--kind", choices=("rank1", "graded"))
    cm.add_argument("--base", choices=("vab", "vAb"))
    for key in MODULE_PARAMS["rank1"]:     # rank1 reads every module param
        cm.add_argument(f"--{key}")
    cm.add_argument("--bitseq")
    cm.add_argument("--bitseq-lo", type=int)
    cl = own["classify"]
    cl.add_argument("--kind", choices=("rank1", "graded"))
    cl.add_argument("--base", choices=("vab", "vAb", "both"))
    cl.add_argument("--grid")
    cl.add_argument("--bitseqs", type=int, help="number of seeded random bit sequences")
    dv = own["derivations"]
    dv.add_argument("--task", choices=("dvec-check", "solve", "dichotomy", "decompose"))
    dv.add_argument("--grading", type=int, help="grading degree of the derivation")
    own["paper-suite"].add_argument("--only", help="comma-separated criterion numbers")

    parser = argparse.ArgumentParser(
        prog="confalg",
        description="exact verification toolkit for Schroedinger-Virasoro "
        "type Lie conformal algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in own.items():
        sub.add_parser(command, parents=[options, common])
    return parser


def _file_args(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """The YAML map at ``path`` as ``--flag=value`` arguments of ``command``.

    A key is the full name of one of the subcommand's flags, with ``_`` or
    ``-`` between words; any other key, ``config`` among them, is a
    ``ConfigError``.  ``yaml.BaseLoader`` keeps each scalar as the text
    written (``bitseq: 0110`` stays ``0110``, not an integer), so the flag
    parser reads it as it reads the command line.  The ``=`` form keeps a
    value such as ``-9`` from reading as a flag.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.load(fh, Loader=yaml.BaseLoader) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path!r} must hold a key-value map")
    # argparse has no public view of a subcommand's flags
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = set(subparsers.choices[command]._option_string_actions) - {"--config", "--help"}
    out = []
    for key, value in loaded.items():
        flag = "--" + str(key).replace("_", "-")
        if flag not in flags:
            raise ConfigError(f"config file {path!r}: key {key!r} is not a flag of {command}")
        out.append(f"{flag}={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file entries go before the command line's own flags, which win
            args = parser.parse_args(
                argv[:1] + _file_args(parser, args.command, args.config) + argv[1:]
            )
        report = COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_text())
    if args.report:
        payload = report.to_json() if args.format == "json" else report.to_text()
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
