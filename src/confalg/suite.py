"""The full verification suite: every headline claim at desk scale.

Each criterion runs a fixed, seeded configuration and yields check records
for the report.  Every criterion takes the seed; those that draw nothing
ignore it.  All checks are exact (zero-residual) statements; the
recorded timings are informative only.

Scope note: the classification and derivation theorems quantify over all
generator indices and unbounded polynomial degrees.  This suite certifies
them at the configured windows and degree bounds (the derivation dichotomy
at every window); the records carry that scope in their claims.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .catalog import (
    CATALOG,
    build_csv,
    build_tsv_lie,
    claim,
    claimed,
    lie_symbolic_check,
    solve_construction,
)
from .classify import (
    ClassifyOutcome,
    StepFailed,
    classify_graded,
    classify_rank1,
    materialize,
)
from .derivations import (
    DerivationSpec,
    ad,
    check_derivation,
    d_vec,
    decompose,
    solve_graded_derivations,
)
from .lca import (
    Generator,
    GenPoly,
    bracket,
    check_all_axioms,
    grading_project,
)
from .modules import (
    BitSeq,
    build_graded,
    build_rank1,
    check_module_axioms,
    extension_family,
    reducibility_witness,
    relations_oracle,
    window_reach,
)
from .poly import GaussianRational, MPoly, NotDivisible, parse_poly
from .report import CheckRecord, Report, timed_check

DEFAULT_SEED = 20250809

DERIVATION_GRID_A = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-2))
DERIVATION_GRID_B = (Fraction(0), Fraction(1), Fraction(-3))
MODULE_GRID = ((0, 0), (1, 0), (0, 1), (2, 5), (1, 1))


# Expected verdicts, read from the catalog's claims by the criteria and the CLI.


def _equals(param, value: int) -> bool:
    """Exact equality of a parameter (a number or 'sym') with an integer."""
    return param != "sym" and GaussianRational.of(param) == GaussianRational.of(value)


def expected_weights(a=MPoly.var("a"), b=MPoly.var("b")):
    """The unique L-on-Y weights that close the construction: (a/2 + 1, b/2)."""
    return a * Fraction(1, 2) + 1, b * Fraction(1, 2)


def expected_extra_dimension(algebra: str, a=None) -> int:
    """The non-inner derivation dimension of ``algebra`` at ``a``, its catalog
    claim: ``extra_at_a1`` at a = 1, else 0 (``a`` is not read when that is 0)."""
    extra = claim(algebra, "extra_at_a1")
    return extra if extra and _equals(a, 1) else 0


def constant_on_window(bits: BitSeq, n_basis: int, k_gen: int) -> bool:
    reach = window_reach(n_basis, k_gen)
    return len({bits.at(i) for i in range(-reach, reach + 1)}) == 1


def extension_expected(
    algebra: str, a, b, bits: BitSeq | None = None, n_basis: int = 3, k_gen: int = 2
) -> bool:
    """Whether classification over ``algebra(a, b)`` finds the scalar extension.

    It exists exactly at the algebra's extension point.  On a case-split
    (vAb) base the flat extension needs more: its (L_i, Y_j) identity
    (L_i, M_j for chv) on v_m reads the case split at (m, i+m) and at
    (j+m, i+j+m) and holds only where the two patterns agree, so the bits
    must be constant on the probed window.
    """
    point_a, point_b = claim(algebra, "extension_point")
    if not (_equals(a, point_a) and _equals(b, point_b)):
        return False
    return bits is None or constant_on_window(bits, n_basis, k_gen)


def rank1_faults(outcome: ClassifyOutcome) -> list[str]:
    """What is wrong with a rank-one outcome; empty when it is the expected one."""
    want = extension_expected(outcome.algebra, outcome.a, outcome.b)
    return _outcome_faults(outcome, want, "d*c^i")


def graded_faults(
    outcome: ClassifyOutcome, bits: BitSeq | None = None, n_basis: int = 3, k_gen: int = 2
) -> list[str]:
    """What is wrong with a graded outcome; empty when it is the expected one."""
    want = extension_expected(outcome.algebra, outcome.a, outcome.b, bits, n_basis, k_gen)
    return _outcome_faults(outcome, want, "d")


def _outcome_faults(outcome: ClassifyOutcome, want: bool, extension_text: str) -> list[str]:
    """Faults of an outcome against the expected verdict ``want``.

    The extension family reads ``extension_text`` exactly when ``want``;
    every other family but L (on csv the M family) reads 0.
    """
    ext_family = extension_family(tuple(outcome.families))
    faults = []
    if outcome.has_extension != want:
        faults.append(f"extension_dim {outcome.extension_dim}, expected {int(want)}")
    for fam, got in outcome.families.items():
        expected = extension_text if want and fam == ext_family else "0"
        if fam != "L" and got != expected:
            faults.append(f"{fam}: {got!r}, expected {expected!r}")
    return faults


def _classified(rec: CheckRecord, classify, *args, **kwargs):
    """Run a classifier: (outcome, []), or (None, [fault]) after a failed step.

    The fault names the failed step; the record's detail keeps the step
    trace of the first run that failed.
    """
    try:
        return classify(*args, **kwargs), []
    except StepFailed as exc:
        rec.detail = rec.detail or exc.trace
        return None, [str(exc)]


def _rand_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_scalar(rng: random.Random, complex_share: float = 0.0) -> GaussianRational:
    im = _rand_fraction(rng) if rng.random() < complex_share else Fraction(0)
    return GaussianRational(_rand_fraction(rng), im)


def _rand_poly(
    rng: random.Random,
    names: tuple[str, ...],
    max_degree: int = 4,
    max_terms: int = 4,
    complex_share: float = 0.0,
) -> MPoly:
    acc = MPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = MPoly.const(_rand_scalar(rng, complex_share))
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            term = term * MPoly.var(rng.choice(names))
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------


def criterion_1(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    """Fully symbolic axiom check of the three-family construction."""
    out: list[CheckRecord] = []
    with timed_check(
        out,
        "c1-axioms",
        "all 6 skew pairs and 10 Jacobi triples of csv(a,b) vanish "
        "identically with symbolic a, b",
    ) as rec:
        report = check_all_axioms(build_csv("sym", "sym"))
        rec.passed = report.all_zero and len(report.skew) == 6 and len(report.jacobi) == 10
        rec.status = (
            "zero" if report.all_zero else "nonzero: " + ", ".join(report.nonzero_checks())
        )
    return out


def criterion_2(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    """Unique bracket weights, plus necessity off the solution locus."""
    out: list[CheckRecord] = []
    with timed_check(
        out, "c2-solver", "the coefficient system forces ap = a/2 + 1 and bp = b/2"
    ) as rec:
        sol = solve_construction()
        rec.passed = (sol.ap, sol.bp) == expected_weights()
        rec.status = f"ap = {sol.ap}, bp = {sol.bp}"
    with timed_check(
        out,
        "c2-solver-restricted",
        "the d*l and d coefficient equations alone give the same weights",
    ) as rec:
        sub = solve_construction(restrict_to=["d*l", "d"])
        rec.passed = (sub.ap, sub.bp) == expected_weights()
        rec.status = f"ap = {sub.ap}, bp = {sub.bp}"
    with timed_check(
        out,
        "c2-necessity",
        "every weight pair off the locus breaks the (L, Y, Y) Jacobi identity, "
        "for every (a, b)",
    ) as rec:
        # the solve raises unless every coefficient equation is exactly
        # linear in (ap, bp) with constant rows of full rank 2, so at each
        # (a, b) only the solution zeroes every coefficient
        sol = solve_construction()
        rec.passed = (sol.ap, sol.bp) == expected_weights()
        rec.status = (
            f"{len(sol.equations)} coefficient equations, constant rows of rank 2: "
            f"zero only at ap = {sol.ap}, bp = {sol.bp}"
        )
    return out


def criterion_3(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    with timed_check(
        out,
        "c3-tsv",
        "anti-symmetry and Jacobi hold at every index of the motivating "
        "graded Lie algebra (polynomial identities in the indices)",
    ) as rec:
        report = lie_symbolic_check(build_tsv_lie())
        rec.passed = report.all_zero
        rec.status = (
            "zero"
            if report.all_zero
            else f"{len(report.antisymmetry_failures)} antisym / "
            f"{len(report.jacobi_failures)} jacobi failures"
        )
    return out


#: the image-degree bound and window of criterion 4's solves
C4_BOUND = 4
C4_WINDOW = 2


def c4_dichotomy(name: str) -> CheckRecord:
    """Criterion 4 on one algebra with a ``c4`` claim: the non-inner
    dimension is 1 iff a = 1 on the weight grid at degrees -1..1, and each
    solve must find ker B = 0, which makes its answer independent of the
    window."""
    out: list[CheckRecord] = []
    with timed_check(
        out,
        f"c4-dichotomy-{name}",
        f"over the 5x3 weight grid and degrees -1..1, the non-inner "
        f"dimension of {name} equals 1 exactly at a = 1 "
        f"(every window, image degree {C4_BOUND})",
    ) as rec:
        build = CATALOG[name].build
        failures, window_bound = [], []
        for a in DERIVATION_GRID_A:
            for b in DERIVATION_GRID_B:
                for c in (-1, 0, 1):
                    res = solve_graded_derivations(
                        build(a, b), degree=c, bound=C4_BOUND, window=C4_WINDOW
                    )
                    if res.extra_dimension != expected_extra_dimension(name, a):
                        failures.append((a, b, c, res.dimension, res.inner_rank))
                    if not res.every_window:
                        window_bound.append((a, b, c, res.kernel_b_dimension))
        rec.passed = not failures and not window_bound
        if failures:
            rec.status = f"mismatches: {failures}"
        elif window_bound:
            rec.status = f"ker B != 0, certified at window {C4_WINDOW} only: {window_bound}"
        else:
            rec.status = "dimensions match at every window (ker B = 0)"
    return out[0]


def criterion_4(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    """Derivation dichotomy (``c4_dichotomy``) on each algebra with a ``c4``
    claim."""
    return [c4_dichotomy(name) for name in claimed("c4")]


def criterion_5(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    rng = random.Random(seed)
    support = {rng.randint(-2, 2): _rand_scalar(rng) for _ in range(3)}
    support[0] = GaussianRational.of(1)
    names = claimed("c4")
    with timed_check(
        out,
        "c5-dvec-derivation",
        f"the M-valued family is a derivation of {' and '.join(f'{n}(1,b)' for n in names)} "
        "with symbolic b and seeded finite support",
        inputs={"seed": seed, "support": {k: str(v) for k, v in support.items()}},
    ) as rec:
        detail, scopes = [], []
        for name in names:
            spec = CATALOG[name].build(1, "sym")
            rep = check_derivation(spec, d_vec(spec, support, window=3))
            scopes.append(rep.every_index)
            if not rep.all_zero:
                detail.append(f"{name}(1,b) residuals {sorted(rep.residuals)}")
        if all(scopes):
            rec.claim += ", at every index pair"
        rec.passed = not detail
        rec.status = "zero" if not detail else "; ".join(detail)
    with timed_check(
        out, "c5-dvec-a0", "at a = 0 the same map is not a derivation (nonzero residual)"
    ) as rec:
        spec00 = build_csv(0, 0)
        rep = check_derivation(spec00, d_vec(spec00, {0: GaussianRational.of(1)}, window=3))
        rec.passed = not rep.all_zero
        rec.status = "nonzero" if not rep.all_zero else "unexpectedly zero"
    with timed_check(
        out,
        "c5-decompose",
        "decompose recovers x and q exactly from ad(x) + q * family "
        "instances (seeded)",
        inputs={"seed": seed},
    ) as rec:
        failures = []
        for trial in range(5):
            c = rng.randint(-1, 1)
            spec = build_csv(1, 0)
            x = GenPoly.zero()
            for fam in spec.families:
                poly = _rand_poly(rng, ("d",), max_degree=3, max_terms=2)
                if not poly.is_zero():
                    x = x + GenPoly.unit(fam, c, poly)
            q = _rand_scalar(rng)
            inner = ad(spec, x, window=3)
            outer = d_vec(spec, {c: q}, window=3)
            keys = {**inner.images, **outer.images}
            deriv = DerivationSpec(
                spec.families,
                3,
                {key: inner.image(*key) + outer.image(*key) for key in keys},
                degree=c,
            )
            if deriv.is_zero():
                continue
            dec = decompose(spec, deriv, bound=5)
            if dec.x != x or dec.q != q:
                failures.append((trial, str(x), str(q), str(dec.x), str(dec.q)))
        spec23 = build_csv(2, 3)
        x = GenPoly.unit("L", 1, parse_poly("d^2"))
        dec = decompose(spec23, ad(spec23, x, window=3), bound=5)
        if dec.x != x or dec.q:
            failures.append(("fixed", str(x), "0", str(dec.x), str(dec.q)))
        rec.passed = not failures
        rec.status = "round trips" if not failures else f"failures: {failures}"
    return out


def criterion_6(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    for name in claimed("extension_point"):
        with timed_check(
            out,
            f"c6-rank1-{name}",
            f"rank-one classification over the grid finds the scalar "
            f"extension exactly at {claim(name, 'extension_point')} and the "
            "rematerialized family passes the module axioms with symbolic "
            "parameters",
        ) as rec:
            failures = []
            for a, b in MODULE_GRID:
                outcome, faults = _classified(rec, classify_rank1, name, a, b, degree_bound=6)
                faults = faults or rank1_faults(outcome)
                failures.extend((a, b, fault) for fault in faults)
                if outcome is not None:
                    spec = CATALOG[name].build(a, b)
                    rep = check_module_axioms(spec, materialize(outcome, spec))
                    if not rep.all_zero:
                        failures.append((a, b, "round trip", sorted(rep.residuals)))
            rec.passed = not failures
            rec.status = "classified" if not failures else f"failures: {failures}"
    return out


def criterion_7(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    rng = random.Random(seed)
    bitseqs = [BitSeq.random(rng, -9, 9) for _ in range(10)]
    # The fixed sequences give both answers of extension_expected: all 0,
    # all 1, constant on the window only, and non-constant only at its edge.
    n_basis, k_gen = 3, 2
    reach = window_reach(n_basis, k_gen)
    span = range(-9, 10)
    fixed = [
        BitSeq(-9, tuple(0 for _ in span)),
        BitSeq(-9, tuple(1 for _ in span)),
        BitSeq(-9, tuple(int(abs(i) > reach) for i in span)),
        BitSeq(-9, tuple(int(i == reach) for i in span)),
    ]
    sequences = bitseqs + fixed

    for name in claimed("extension_point"):
        ext_point = claim(name, "extension_point")
        with timed_check(
            out,
            f"c7-graded-vab-{name}",
            f"uniform-weights graded classification finds the scalar "
            f"extension exactly at {ext_point} over the grid",
            inputs={"seed": seed},
        ) as rec:
            failures = []
            for a, b in MODULE_GRID:
                outcome, faults = _classified(rec, classify_graded, name, a, b, "vab", 6, 3, 2)
                faults = faults or graded_faults(outcome)
                failures.extend((a, b, "vab", fault) for fault in faults)
            rec.passed = not failures
            rec.status = "classified" if not failures else f"failures: {failures}"

        with timed_check(
            out,
            f"c7-graded-vAb-{name}",
            f"case-split graded classification finds the flat scalar "
            f"extension exactly at {ext_point} for the bit sequences "
            f"constant on [-{reach}, {reach}], and reports the collapse, "
            "confirmed by the relation oracle, for every other sequence "
            f"({len(bitseqs)} seeded, {len(fixed)} fixed)",
            inputs={
                "seed": seed,
                "window": [-reach, reach],
                "fixed": [bits.to_string() for bits in fixed],
            },
        ) as rec:
            failures = []
            found = 0
            for a, b in MODULE_GRID:
                at_point = extension_expected(name, a, b)
                for k, bits in enumerate(sequences):
                    constant = constant_on_window(bits, n_basis, k_gen)
                    where = "constant on window" if constant else "non-constant on window"
                    want_ext = extension_expected(name, a, b, bits, n_basis, k_gen)
                    outcome, faults = _classified(
                        rec, classify_graded, name, a, b, "vAb", 6, n_basis, k_gen, bitseq=bits
                    )
                    faults = faults or graded_faults(outcome, bits, n_basis, k_gen)
                    failures.extend((a, b, k, where, fault) for fault in faults)
                    if at_point:
                        found += outcome is not None and outcome.has_extension
                        # independent of the classifier's own sufficiency step,
                        # which runs check_module_axioms
                        module = build_graded(
                            CATALOG[name].build(a, b), "vAb", bits, "sym", "sym"
                        )
                        oracle = relations_oracle(module, a, b, n_basis, k_gen)
                        if oracle.all_zero != want_ext:
                            verdict = "zero" if oracle.all_zero else "nonzero"
                            failures.append((a, b, k, where, f"oracle {verdict}"))
            rec.passed = not failures
            rec.status = (
                f"classified; flat extension for {found} of "
                f"{len(sequences)} sequences at {ext_point}"
                if not failures
                else f"{len(failures)} failures, first: {failures[0]}"
            )

    with timed_check(
        out,
        "c7-oracle-equivalence",
        "the generic axiom checker and the hand-coded relation oracle "
        "agree (zero iff zero) on 50 seeded graded modules",
        inputs={"seed": seed, "samples": 50},
    ) as rec:
        mismatches = []
        pool = list(MODULE_GRID) + [(1, 1), (0, 0)]
        for k in range(50):
            a, b = pool[rng.randrange(len(pool))]
            kind = rng.choice(["vab", "vAb"])
            d_val = rng.choice([0, 1, _rand_fraction(rng)])
            beta = _rand_fraction(rng)
            spec = build_csv(a, b)
            if kind == "vab":
                module = build_graded(spec, "vab", _rand_fraction(rng), beta, d_val)
            else:
                module = build_graded(spec, "vAb", BitSeq.random(rng, -9, 9), beta, d_val)
            axioms = check_module_axioms(spec, module, n_basis=3, k_gen=2)
            oracle = relations_oracle(module, a, b, n_basis=3, k_gen=2)
            if axioms.all_zero != oracle.all_zero:
                mismatches.append((k, a, b, kind, str(d_val)))
        rec.passed = not mismatches
        rec.status = "agree" if not mismatches else f"mismatches: {mismatches}"
    return out


def criterion_8(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    rng = random.Random(seed)
    with timed_check(
        out, "c8-witness-found", "at alpha = 0 the witness d + beta is found at degree 1"
    ) as rec:
        failures = []
        for beta in (Fraction(5), Fraction(-1, 2), Fraction(0)):
            module = build_rank1(build_csv(0, 0), 0, beta, 1, 0)
            res = reducibility_witness(module)
            expected = MPoly.var("d") + MPoly.const(beta)
            if res.witness != expected or res.degree != 1:
                failures.append((beta, str(res.witness)))
        rec.passed = not failures
        rec.status = "found" if not failures else f"failures: {failures}"
    with timed_check(
        out,
        "c8-witness-absent",
        "10 seeded modules with alpha, c nonzero admit no witness at any "
        "degree",
        inputs={"seed": seed},
    ) as rec:
        failures = []
        for k in range(10):
            alpha = _rand_fraction(rng)
            while alpha == 0:
                alpha = _rand_fraction(rng)
            c = _rand_fraction(rng)
            while c == 0:
                c = _rand_fraction(rng)
            module = build_rank1(build_csv(0, 0), alpha, _rand_fraction(rng), c, 0)
            res = reducibility_witness(module)
            if res.witness is not None:
                failures.append((k, str(alpha), str(c), str(res.witness)))
        rec.passed = not failures
        rec.status = "none found" if not failures else f"failures: {failures}"
    return out


def criterion_9(seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    out: list[CheckRecord] = []
    rng = random.Random(seed)
    names = ("d", "l", "m", "a", "b")

    with timed_check(
        out,
        "c9-ring-laws",
        "associativity, distributivity, commutativity and cancellation "
        "on 1000 seeded random polynomials",
        inputs={"seed": seed, "cases": 1000},
    ) as rec:
        failures = 0
        for _ in range(1000):
            p = _rand_poly(rng, names, complex_share=0.15)
            q = _rand_poly(rng, names, complex_share=0.15)
            r = _rand_poly(rng, names, complex_share=0.15)
            if (p + q) + r != p + (q + r) or p * (q + r) != p * q + p * r or p * q != q * p:
                failures += 1
            if not (p - p).is_zero():
                failures += 1
        rec.passed = failures == 0
        rec.status = f"{failures} failures"

    with timed_check(
        out,
        "c9-divide-roundtrip",
        "divide_exact(p*q, q) == p on 1000 seeded random pairs",
        inputs={"seed": seed, "cases": 1000},
    ) as rec:
        failures = 0
        for _ in range(1000):
            p = _rand_poly(rng, names)
            q = _rand_poly(rng, names)
            if q.is_zero():
                q = MPoly.var("d") + 1
            try:
                if (p * q).divide_exact(q) != p:
                    failures += 1
            except NotDivisible:
                failures += 1
        rec.passed = failures == 0
        rec.status = f"{failures} failures"

    with timed_check(
        out,
        "c9-coeff-reconstruction",
        "summing coefficient * monomial over any variable split "
        "reconstructs the polynomial (1000 seeded cases)",
        inputs={"seed": seed, "cases": 1000},
    ) as rec:
        failures = 0
        for _ in range(1000):
            p = _rand_poly(rng, names)
            subset = tuple(n for n in names if rng.random() < 0.5) or ("d",)
            total = MPoly.zero()
            for mono, coeff_poly in p.split_by(subset).items():
                total = total + coeff_poly * MPoly({mono: GaussianRational.of(1)})
            if total != p:
                failures += 1
        rec.passed = failures == 0
        rec.status = f"{failures} failures"

    with timed_check(
        out,
        "c9-bracket-invariants",
        "bracket additivity, weight additivity and index-shift "
        "uniformity on 100 seeded cases",
        inputs={"seed": seed, "cases": 100},
    ) as rec:
        failures = 0
        spec = build_csv("sym", "sym")
        for _ in range(100):
            fam_x = rng.choice(spec.families)
            fam_y = rng.choice(spec.families)
            i, j = rng.randint(-5, 5), rng.randint(-5, 5)
            p = _rand_poly(rng, ("d",), max_degree=3, max_terms=3)
            x = GenPoly.unit(fam_x, i, p)
            y = GenPoly.unit(fam_y, j)
            z = GenPoly.unit("L", rng.randint(-5, 5))
            lhs = bracket(spec, x + z, y)
            rhs = bracket(spec, x, y) + bracket(spec, z, y)
            if lhs != rhs:
                failures += 1
            value = bracket(spec, x, y)
            if not grading_project(value, i + j) == value:
                failures += 1
            base = bracket(spec, GenPoly.unit(fam_x, 0, p), GenPoly.unit(fam_y, 0))
            shifted = GenPoly(
                {
                    Generator(gen.family, gen.index + i + j): poly
                    for gen, poly in base.terms.items()
                }
            )
            if shifted != value:
                failures += 1
        rec.passed = failures == 0
        rec.status = f"{failures} failures"
    return out


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_paper_suite(seed: int = DEFAULT_SEED, only: list[int] | None = None) -> Report:
    report = Report(command="paper-suite", config={"seed": seed})
    for number in sorted(only or CRITERIA):
        for record in CRITERIA[number](seed):
            report.add(record)
    return report
