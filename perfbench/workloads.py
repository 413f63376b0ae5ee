"""Seeded benchmark inputs, the confalg calls that answer them, and
references that are independent of the code under test.

Every workload is an endless seeded schedule of cases.  ``case.run()``
calls confalg's public API on the generated inputs and returns the
observed verdict; ``case.check(observed)`` compares it with a reference
taken from the paper or from the README, never from confalg itself.

Entry points are looked up on their modules at call time (``catalog.
build_csv``, not a name imported once), so that the tracer's wrappers are
the ones called during a traced run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from confalg import catalog, classify, derivations, lca, modules
from confalg.poly import GaussianRational, MPoly

#: criterion 4's weight grid, degrees, image degree bound and window
DERIVE_A = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-2))
DERIVE_B = (Fraction(0), Fraction(1), Fraction(-3))
DERIVE_DEGREES = (-1, 0, 1)
DERIVE_BOUND, DERIVE_WINDOW = 4, 2

#: criterion 7's module grid and window; bit sequences cover [-9, 9]
MODULE_GRID = ((0, 0), (1, 0), (0, 1), (2, 5), (1, 1))
N_BASIS, K_GEN = 3, 2
BITS_LO, BITS_LEN = -9, 19
#: the graded checker reads bits at m, i+m, j+m and i+j+m
PROBED = N_BASIS + 2 * K_GEN

EXT_POINT = {"csv": (0, 0), "chv": (1, 0)}
EXT_FAMILY = {"csv": "Y", "chv": "M"}

#: a Gaussian rational as an exact (real, imaginary) pair
Gauss = tuple[Fraction, Fraction]
ONE: Gauss = (Fraction(1), Fraction(0))


def _scalar(value: Gauss) -> GaussianRational:
    return GaussianRational(value[0], value[1])


def _build(algebra: str, a, b):
    return getattr(catalog, "build_" + algebra)(a, b)


def _flat_on_probed_window(bits: tuple[int, ...] | None) -> bool:
    """README: the flat extension of a case-split base exists only for bit
    sequences that are constant on the probed window."""
    if bits is None:
        return True
    lo = -PROBED - BITS_LO
    return len(set(bits[lo:lo + 2 * PROBED + 1])) == 1


def _module_exists(algebra: str, a, b, bits, d_is_zero: bool) -> bool:
    """A flat scalar extension is a module at the extension point only."""
    if d_is_zero:
        return True
    return (a, b) == EXT_POINT[algebra] and _flat_on_probed_window(bits)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeriveCase:
    """The derivation dichotomy at one weight point and degree, answered for
    both algebras as criterion 4 does; the paper's dichotomy is the
    reference: one non-inner derivation exactly when a = 1."""

    a: Fraction | Gauss
    b: Fraction | Gauss
    degree: int

    def _weights(self):
        if isinstance(self.a, tuple):
            return _scalar(self.a), _scalar(self.b)
        return self.a, self.b

    def run(self) -> tuple:
        out = []
        for algebra in ("csv", "chv"):
            spec = _build(algebra, *self._weights())
            res = derivations.solve_graded_derivations(
                spec, degree=self.degree, bound=DERIVE_BOUND, window=DERIVE_WINDOW
            )
            out.append((res.dimension, res.inner_rank))
        return tuple(out)

    def check(self, observed: tuple) -> bool:
        a_is_one = self.a == (ONE if isinstance(self.a, tuple) else 1)
        want = 1 if a_is_one else 0
        return all(dimension - inner_rank == want for dimension, inner_rank in observed)


@dataclass(frozen=True)
class ModuleCase:
    """One graded module: its classification, its axiom check, the relation
    oracle and the rank-one classification at the same weights."""

    algebra: str
    a: int
    b: int
    base: str                       # "vab" | "vAb"
    alpha: Fraction | None
    bits: tuple[int, ...] | None
    beta: Fraction
    d: Fraction

    def run(self) -> tuple:
        spec = _build(self.algebra, self.a, self.b)
        bitseq = modules.BitSeq(BITS_LO, self.bits) if self.bits else None
        first = bitseq if self.base == "vAb" else self.alpha
        module = modules.build_graded(spec, self.base, first, self.beta, self.d)
        outcome = classify.classify_graded(
            self.algebra, self.a, self.b, self.base, 6, N_BASIS, K_GEN, bitseq=bitseq
        )
        axioms = modules.check_module_axioms(spec, module, N_BASIS, K_GEN)
        oracle = modules.relations_oracle(module, self.a, self.b, N_BASIS, K_GEN)
        rank1 = classify.classify_rank1(self.algebra, self.a, self.b)
        return (
            tuple(sorted(outcome.families.items())),
            axioms.all_zero,
            oracle.all_zero,
            rank1.extension_dim,
        )

    def check(self, observed: tuple) -> bool:
        families, axioms, oracle, rank1 = observed
        families = dict(families)
        at_ext = (self.a, self.b) == EXT_POINT[self.algebra]
        extends = at_ext and _flat_on_probed_window(self.bits)
        ok = families[EXT_FAMILY[self.algebra]] == ("d" if extends else "0")
        if self.algebra == "csv":
            ok = ok and families["M"] == "0"
        exists = _module_exists(self.algebra, self.a, self.b, self.bits, self.d == 0)
        return ok and axioms == exists and oracle == exists and rank1 == int(at_ext)


@dataclass(frozen=True)
class AxiomsCase:
    """Skew-symmetry and Jacobi of csv and chv with symbolic weights, and
    with one weight Gaussian: the paper says they hold for every a, b."""

    csv_b: Gauss
    chv_a: Gauss

    def run(self) -> tuple:
        specs = (
            catalog.build_csv("sym", "sym"),
            catalog.build_chv("sym", "sym"),
            catalog.build_csv("sym", _scalar(self.csv_b)),
            catalog.build_chv(_scalar(self.chv_a), "sym"),
        )
        return tuple(lca.check_all_axioms(spec).all_zero for spec in specs)

    def check(self, observed: tuple) -> bool:
        return observed == (True,) * 4


@dataclass(frozen=True)
class ConstructionCase:
    """The construction solve and Jacobi samples of the free-weight table at
    Gaussian weights.  The paper's reference: the table is a Lie conformal
    algebra exactly at ap = a/2 + 1, bp = b/2."""

    samples: tuple[tuple[Gauss, Gauss, Gauss, Gauss, bool], ...]

    def run(self) -> tuple:
        solution = catalog.solve_construction()
        jacobi = tuple(
            lca.check_jacobi(
                catalog.build_construction(*(_scalar(w) for w in weights)),
                "L", "Y", "Y",
            ).is_zero()
            for *weights, _ in self.samples
        )
        return (solution.ap, solution.bp, jacobi)

    def check(self, observed: tuple) -> bool:
        ap, bp, jacobi = observed
        half = Fraction(1, 2)
        return (
            ap == MPoly.var("a").scale(half) + 1
            and bp == MPoly.var("b").scale(half)
            and jacobi == tuple(on_locus for *_, on_locus in self.samples)
        )


@dataclass(frozen=True)
class LeibnizCase:
    """The M-valued family d_vec on csv(a, b) and chv(a, b) with symbolic b:
    a derivation exactly when a = 1."""

    a: Gauss
    support: tuple[tuple[int, Gauss], ...]

    def run(self) -> tuple:
        out = []
        for algebra in ("csv", "chv"):
            spec = _build(algebra, _scalar(self.a), "sym")
            seq = {c: _scalar(v) for c, v in self.support}
            deriv = derivations.d_vec(spec, seq, window=3)
            out.append(derivations.check_derivation(spec, deriv).all_zero)
        return tuple(out)

    def check(self, observed: tuple) -> bool:
        return observed == (self.a == ONE,) * 2


@dataclass(frozen=True)
class SymbolicModuleCase:
    """A graded module with symbolic beta and extension scalar: the identity
    holds for every d only where the flat extension exists."""

    algebra: str
    a: int | Gauss
    b: int | Gauss
    base: str
    alpha: Gauss | None
    bits: tuple[int, ...] | None

    def run(self) -> tuple:
        a, b = (
            (_scalar(self.a), _scalar(self.b)) if isinstance(self.a, tuple)
            else (self.a, self.b)
        )
        spec = _build(self.algebra, a, b)
        first = (
            modules.BitSeq(BITS_LO, self.bits) if self.base == "vAb"
            else _scalar(self.alpha)
        )
        module = modules.build_graded(spec, self.base, first, "sym", "sym")
        return (modules.check_module_axioms(spec, module, N_BASIS, K_GEN).all_zero,)

    def check(self, observed: tuple) -> bool:
        return observed == (
            _module_exists(self.algebra, self.a, self.b, self.bits, False),
        )


# ---------------------------------------------------------------------------
# seeded schedules
# ---------------------------------------------------------------------------


def _deal(rng: random.Random, items: list) -> Iterator:
    """Endless draws that visit every item once per shuffled round."""
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def _fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _nonreal(rng: random.Random) -> Gauss:
    im = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
    return (_fraction(rng), im)


def _bits(rng: random.Random, kind: str) -> tuple[int, ...]:
    if kind == "zeros":
        return (0,) * BITS_LEN
    if kind == "ones":
        return (1,) * BITS_LEN
    return tuple(rng.randint(0, 1) for _ in range(BITS_LEN))


def _derive(rng: random.Random) -> Iterator[DeriveCase]:
    """Criterion 4's traffic: every grid point and degree, csv and chv alike."""
    grid = [DeriveCase(a, b, c) for a in DERIVE_A for b in DERIVE_B for c in DERIVE_DEGREES]
    return _deal(rng, grid)


def _modules(rng: random.Random) -> Iterator[ModuleCase]:
    """Every round deals each (grid point, base) pair once, in a shuffled
    order.  The extension scalar of a pair turns by one each round, so three
    rounds deal the whole product; within a round, each point gives its
    three flat bases (vab, all-0, all-1) three different scalars.  A flat
    extension with d != 0 is the costliest verdict (about twice the
    median), and this deals the same number of them in every round, so
    that runs of different seeds see the same mix of costs."""
    points = [(alg, a, b) for alg in ("csv", "chv") for a, b in MODULE_GRID]
    # the non-constant sequences are the known red of criterion 7; the
    # constant ones are where the flat extension survives
    bases = ("vab", "zeros", "ones", "random", "random")
    scalars = ("zero", "one", "other")
    offset = {}
    for point in points:
        turns = rng.sample(range(3), 3) + rng.sample(range(3), 2)
        for k, turn in enumerate(turns):
            offset[point, k] = turn
    deck = [(point, k) for point in points for k in range(len(bases))]
    round_ = 0
    while True:
        rng.shuffle(deck)
        for point, k in deck:
            algebra, a, b = point
            base = bases[k]
            d = {"zero": Fraction(0), "one": Fraction(1)}.get(
                scalars[(offset[point, k] + round_) % 3]
            )
            if d is None:
                d = _fraction(rng) or Fraction(1, 2)
            if base == "vab":
                alpha, bits = _fraction(rng), None
            else:
                alpha, bits = None, _bits(rng, base)
            yield ModuleCase(
                algebra, a, b, "vab" if base == "vab" else "vAb",
                alpha, bits, _fraction(rng), d,
            )
        round_ += 1


def _construction(rng: random.Random) -> ConstructionCase:
    samples = []
    for k in range(12):
        a, b = _nonreal(rng), _nonreal(rng)
        on_locus = k % 2 == 0
        ap = (a[0] / 2 + 1, a[1] / 2)
        bp = (b[0] / 2, b[1] / 2)
        if not on_locus:
            ap = (ap[0] + rng.choice((0, 1)), ap[1] + rng.randint(1, 3))
        samples.append((a, ap, b, bp, on_locus))
    return ConstructionCase(tuple(samples))


def _leibniz(rng: random.Random, a: Gauss) -> LeibnizCase:
    """d_vec with support at 0 and two other offsets in [-2, 2]."""
    offsets = rng.sample([-2, -1, 1, 2], 2)
    support = {0: ONE, **{c: _nonreal(rng) for c in offsets}}
    return LeibnizCase(a, tuple(sorted(support.items())))


def _symbolic(rng: random.Random) -> Iterator:
    """One verdict of each input kind per round, in a shuffled order: the
    kinds carry equal weight, since no use fixes their proportions."""
    solve_a = _deal(rng, ["one", "nonreal", "nonreal"])
    solve_degrees = _deal(rng, list(DERIVE_DEGREES))
    leibniz_a = _deal(rng, ["one", "nonreal"])
    module_points = _deal(
        rng, [(alg, a, b) for alg in ("csv", "chv") for a, b in MODULE_GRID]
        + [("csv", None, None), ("chv", None, None)]
    )
    bases = _deal(rng, ["vab", "random", "zeros", "ones"])

    def module() -> SymbolicModuleCase:
        algebra, a, b = next(module_points)
        if a is None:
            a, b = _nonreal(rng), _nonreal(rng)
        base = next(bases)
        if base == "vab":
            return SymbolicModuleCase(algebra, a, b, "vab", _nonreal(rng), None)
        return SymbolicModuleCase(algebra, a, b, "vAb", None, _bits(rng, base))

    def solve() -> DeriveCase:
        a = ONE if next(solve_a) == "one" else _nonreal(rng)
        return DeriveCase(a, _nonreal(rng), next(solve_degrees))

    kinds = {
        "axioms": lambda: AxiomsCase(_nonreal(rng), _nonreal(rng)),
        "construction": lambda: _construction(rng),
        "leibniz": lambda: _leibniz(rng, ONE if next(leibniz_a) == "one" else _nonreal(rng)),
        "module": module,
        "solve": solve,
    }
    order = list(kinds)
    while True:
        rng.shuffle(order)
        for kind in order:
            yield kinds[kind]()


SCHEDULES = {"derive": _derive, "modules": _modules, "symbolic": _symbolic}


def schedule(workload: str, seed: int) -> Iterator:
    """The endless case sequence of a workload; the same seed gives the same cases."""
    return SCHEDULES[workload](random.Random(f"{workload}:{seed}"))
