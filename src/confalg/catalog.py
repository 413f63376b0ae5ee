"""Constructors for the algebras handled by this package.

``build_csv(a, b)`` builds the infinite-rank Schroedinger-Virasoro type
conformal algebra with generator families L, M, Y and nonvanishing brackets

    [L_i _l L_j] = (d + 2l) L_{i+j}
    [L_i _l M_j] = (d + a*l + b) M_{i+j}
    [L_i _l Y_j] = (d + (a/2+1)*l + b/2) Y_{i+j}
    [Y_i _l Y_j] = (d + 2l) M_{i+j}

together with the skew-forced reverse orientations.  The other builders are
family or index restrictions of the same data.  ``build_construction`` keeps
the L-on-Y weights (ap, bp) free; ``solve_construction`` recovers the unique
values ap = a/2 + 1 and bp = b/2 that make the table a Lie conformal
algebra, by solving the coefficient equations of the (L, Y, Y) Jacobi
residual.

The module also carries a plain (non-conformal) graded Lie algebra checker
for the twisted Schroedinger-Virasoro bracket relations that motivate the
conformal construction, and ``CATALOG``: each algebra by its public
identifier, with its builder, the parameters the builder reads and the
claims (``claim``) that every suite criterion and command-line task reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .lca import VAR_D, VAR_L, AlgebraSpec, check_jacobi, make_algebra
from .linsolve import linear_solve
from .poly import GaussianRational, MPoly, PolyLike

ParamLike = PolyLike | str

def as_param(value: ParamLike, default_symbol: str) -> MPoly:
    """Coerce a parameter: scalars stay exact, 'sym' becomes a variable."""
    if isinstance(value, str):
        name = default_symbol if value == "sym" else value
        return MPoly.var(name)
    return MPoly.of(value)


def _symbolic_names(*params: MPoly) -> tuple[str, ...]:
    names: list[str] = []
    for p in params:
        for v in p.variables():
            if v not in names:
                names.append(v)
    return tuple(names)


def build_construction(
    a: ParamLike = "sym",
    ap: ParamLike = "sym",
    b: ParamLike = "sym",
    bp: ParamLike = "sym",
    *,
    name: str = "mfam",
) -> AlgebraSpec:
    """The candidate bracket table with free L-on-Y weights ap, bp."""
    pa = as_param(a, "a")
    pap = as_param(ap, "ap")
    pb = as_param(b, "b")
    pbp = as_param(bp, "bp")
    d = MPoly.var(VAR_D)
    lam = MPoly.var(VAR_L)
    declared = {
        ("L", "L"): [("L", d + lam.scale(2))],
        ("L", "M"): [("M", d + pa * lam + pb)],
        ("L", "Y"): [("Y", d + pap * lam + pbp)],
        ("Y", "Y"): [("M", d + lam.scale(2))],
    }
    return make_algebra(
        name,
        ["L", "M", "Y"],
        declared,
        parameters=_symbolic_names(pa, pap, pb, pbp),
    )


def build_csv(a: ParamLike = "sym", b: ParamLike = "sym") -> AlgebraSpec:
    """The Schroedinger-Virasoro type algebra: ap = a/2 + 1, bp = b/2."""
    pa = as_param(a, "a")
    pb = as_param(b, "b")
    half = Fraction(1, 2)
    return build_construction(
        pa, pa.scale(half) + 1, pb, pb.scale(half), name="csv"
    )


def restrict_families(spec: AlgebraSpec, families: list[str], name: str) -> AlgebraSpec:
    """Keep only the given families and the brackets among them."""
    table = {
        (fa, fb): entries
        for (fa, fb), entries in spec.table.items()
        if fa in families and fb in families
    }
    return AlgebraSpec(
        name=name,
        families=tuple(families),
        table=table,
        index0_only=spec.index0_only,
        parameters=spec.parameters,
    )


def build_chv(a: ParamLike = "sym", b: ParamLike = "sym") -> AlgebraSpec:
    """The Heisenberg-Virasoro type subalgebra on families L, M."""
    return restrict_families(build_csv(a, b), ["L", "M"], "chv")


def build_cw() -> AlgebraSpec:
    """The loop Virasoro algebra: family L only."""
    return restrict_families(build_csv(0, 0), ["L"], "cw")


def _index0(spec: AlgebraSpec, name: str) -> AlgebraSpec:
    return AlgebraSpec(
        name=name,
        families=spec.families,
        table=spec.table,
        index0_only=True,
        parameters=spec.parameters,
    )


def build_sv(a: ParamLike = "sym", b: ParamLike = "sym") -> AlgebraSpec:
    """Finite Schroedinger-Virasoro type algebra (index-0 restriction)."""
    return _index0(build_csv(a, b), "sv")


def build_hv(a: ParamLike = "sym", b: ParamLike = "sym") -> AlgebraSpec:
    """Finite Heisenberg-Virasoro type algebra (index-0 restriction)."""
    return _index0(build_chv(a, b), "hv")


def build_cvir() -> AlgebraSpec:
    """The Virasoro conformal algebra (single generator L_0)."""
    return _index0(build_cw(), "cvir")


# ---------------------------------------------------------------------------
# the construction solver
# ---------------------------------------------------------------------------


@dataclass
class ConstructionSolution:
    """Unique weights making the candidate table a Lie conformal algebra."""

    ap: MPoly
    bp: MPoly
    equations: list[tuple[str, MPoly]]  # (monomial in d,l,m, coefficient equation)


def construction_jacobi_residual(
    a: ParamLike = "sym",
    ap: ParamLike = "sym",
    b: ParamLike = "sym",
    bp: ParamLike = "sym",
) -> MPoly:
    """The (L, Y, Y) Jacobi residual of the candidate table (it lives on M[0])."""
    residual = check_jacobi(build_construction(a, ap, b, bp), "L", "Y", "Y")
    return sum(residual.terms.values(), MPoly.zero())


def solve_construction(restrict_to: list[str] | None = None) -> ConstructionSolution:
    """Solve the coefficient equations of the (L, Y, Y) Jacobi residual.

    Every monomial coefficient in (d, l, m) must be exactly
    ``cap*ap + cbp*bp + rest`` with constants cap, cbp and a rest free of the
    unknown weights; an equation that is not is a ``ValueError`` naming its
    monomial.  So the whole system is a scalar linear solve with polynomial
    right-hand sides, and since an underdetermined one is refused too, at
    every (a, b) each weight pair but the solution leaves a nonzero
    coefficient.  ``restrict_to``
    optionally keeps only the equations for the named monomials
    (e.g. ["d*l", "d"]), which already determine the solution; a name that
    matches no equation is a ``ValueError``.
    """
    residual = construction_jacobi_residual()
    groups = residual.split_by([VAR_D, VAR_L, "m"])
    rows: list[list[GaussianRational]] = []
    rhs: list[MPoly] = []
    equations: list[tuple[str, MPoly]] = []
    for mono, coeff_poly in sorted(groups.items()):
        mono_txt = "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in mono) or "1"
        if restrict_to is not None and mono_txt not in restrict_to:
            continue
        cap = coeff_poly.coeff_extract(["ap"], {"ap": 1})
        cbp = coeff_poly.coeff_extract(["bp"], {"bp": 1})
        rest = coeff_poly.substitute("ap", 0).substitute("bp", 0)
        linear = cap * MPoly.var("ap") + cbp * MPoly.var("bp") + rest
        if linear != coeff_poly or not (cap.is_constant() and cbp.is_constant()):
            raise ValueError(
                f"the [{mono_txt}] coefficient equation {coeff_poly} is not "
                "cap*ap + cbp*bp + rest with constant cap, cbp"
            )
        rows.append([cap.constant_value(), cbp.constant_value()])
        rhs.append(-rest)
        equations.append((mono_txt, coeff_poly))
    unmatched = sorted(set(restrict_to or ()) - {mono_txt for mono_txt, _ in equations})
    if unmatched or not rows:
        raise ValueError(
            f"restrict_to: monomials {unmatched} match no equation of the (L, Y, Y) "
            "Jacobi residual"
        )
    solution = linear_solve(rows, rhs)
    if solution.kernel:
        raise ValueError("construction system is underdetermined")
    return ConstructionSolution(
        ap=solution.solution[0], bp=solution.solution[1], equations=equations
    )


# ---------------------------------------------------------------------------
# the motivating graded Lie algebra (plain, non-conformal)
# ---------------------------------------------------------------------------

#: index symbols: left p, right q, and r for the third element of a Jacobi
#: triple (``i`` is the imaginary unit and d, l, m, n are structural)
_P, _Q, _R = MPoly.var("p"), MPoly.var("q"), MPoly.var("r")

Index = int | MPoly


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Integer-graded Lie algebra: the read-only ``table[(A, B)] = (C, c)``
    means [A_p, B_q] = c(p, q) C_{p+q}, with c an ``MPoly`` in p and q."""

    name: str
    families: tuple[str, ...]
    table: Mapping[tuple[str, str], tuple[str, MPoly]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def bracket_basis(self, fam_a: str, i: Index, fam_b: str, j: Index) -> dict[tuple[str, Index], MPoly]:
        """[fam_a_i, fam_b_j] at integer or symbolic (``MPoly``) indices."""
        entry = self.table.get((fam_a, fam_b))
        if entry is None:
            return {}
        target, coeff = entry
        # simultaneous p -> i, q -> j: i may contain q, j may contain p
        c = coeff.substitute("p", MPoly.var("p_")).substitute("q", j).substitute("p_", i)
        return {(target, i + j): c} if c else {}


def build_tsv_lie() -> LieAlgebraSpec:
    """The twisted Schroedinger-Virasoro bracket relations.

        [L_p, L_q] = (q - p) L_{p+q}
        [L_p, M_q] = q M_{p+q}
        [L_p, Y_q] = (q - p/2) Y_{p+q}
        [Y_p, Y_q] = (q - p) M_{p+q}

    Reverse orientations are stored explicitly with negated constants; the
    checker verifies anti-symmetry rather than assuming it.
    """
    half = Fraction(1, 2)
    table = {
        ("L", "L"): ("L", _Q - _P),
        ("L", "M"): ("M", _Q),
        ("M", "L"): ("M", -_P),
        ("L", "Y"): ("Y", _Q - _P.scale(half)),
        ("Y", "L"): ("Y", _Q.scale(half) - _P),
        ("Y", "Y"): ("M", _Q - _P),
    }
    return LieAlgebraSpec(name="tsv", families=("L", "M", "Y"), table=table)


@dataclass
class LieCheckReport:
    algebra: str
    antisymmetry_failures: list[tuple] = field(default_factory=list)
    jacobi_failures: list[tuple] = field(default_factory=list)

    @property
    def all_zero(self) -> bool:
        return not self.antisymmetry_failures and not self.jacobi_failures


def _lie_sum(terms: Iterable[tuple[tuple[str, Index], MPoly]]) -> dict[tuple[str, Index], MPoly]:
    out: dict[tuple[str, Index], MPoly] = {}
    for key, c in terms:
        out[key] = out.get(key, MPoly.zero()) + c
    return {key: c for key, c in out.items() if c}


def lie_symbolic_check(spec: LieAlgebraSpec) -> LieCheckReport:
    """Anti-symmetry and Jacobi at every index, as polynomial identities.

    The nonzero residuals [x, y] + [y, x] of every family pair and
    [[x, y], z] + [[y, z], x] + [[z, x], y] of every family triple, composed
    at the index symbols p, q, r, so each residual is a polynomial in the
    indices.  One that vanishes at every integer point is the zero
    polynomial, so a residual is zero exactly when its identity holds at
    every index."""
    report = LieCheckReport(spec.name)
    for fa, fb in product(spec.families, repeat=2):
        x, y = (fa, _P), (fb, _Q)
        res = _lie_sum(kc for u, v in ((x, y), (y, x)) for kc in spec.bracket_basis(*u, *v).items())
        if res:
            report.antisymmetry_failures.append((fa, _P, fb, _Q, res))
    for fa, fb, fc in product(spec.families, repeat=3):
        x, y, z = (fa, _P), (fb, _Q), (fc, _R)
        res = _lie_sum(
            (key, c1 * c2)
            for u, v, w in ((x, y, z), (y, z, x), (z, x, y))
            for inner, c1 in spec.bracket_basis(*u, *v).items()
            for key, c2 in spec.bracket_basis(*inner, *w).items()
        )
        if res:
            report.jacobi_failures.append((fa, _P, fb, _Q, fc, _R, res))
    return report


# ---------------------------------------------------------------------------
# the catalog: each algebra's builder, parameters and claims
# ---------------------------------------------------------------------------


class NoClaim(ValueError):
    """A task on an algebra of which the catalog states no claim of its kind."""


@dataclass(frozen=True)
class CatalogRow:
    """One algebra: its builder, the parameters the builder reads, and the
    claims that the suite's criteria and the command line judge it by."""

    build: Callable[..., AlgebraSpec | LieAlgebraSpec]
    params: tuple[str, ...] = ()
    #: the non-inner derivation dimension at a = 1; it is 0 at every other a
    extra_at_a1: int | None = None
    #: L_i -> sum_c a_c M_{i+c} is a derivation exactly at a = 1
    m_family: bool = False
    #: the (a, b) where the module classification finds the scalar extension
    extension_point: tuple[int, int] | None = None
    #: criterion 4 states its derivation dichotomy, and criterion 5 its M family
    c4: bool = False
    #: ``modules.relations_oracle`` writes out its module relations
    oracle: bool = False
    #: a plain graded Lie algebra, which only ``verify-axioms`` reads
    lie: bool = False


#: every algebra by its public identifier
CATALOG = MappingProxyType({
    "csv": CatalogRow(build_csv, ("a", "b"), extra_at_a1=1, m_family=True,
                      extension_point=(0, 0), c4=True, oracle=True),
    "chv": CatalogRow(build_chv, ("a", "b"), extra_at_a1=1, m_family=True,
                      extension_point=(1, 0), c4=True, oracle=True),
    "cw": CatalogRow(build_cw, extra_at_a1=0),
    "sv": CatalogRow(build_sv, ("a", "b"), extra_at_a1=1, m_family=True),
    "hv": CatalogRow(build_hv, ("a", "b"), extra_at_a1=1, m_family=True),
    "cvir": CatalogRow(build_cvir, extra_at_a1=0),
    "mfam": CatalogRow(build_construction, ("a", "b", "ap", "bp"), extra_at_a1=1,
                       m_family=True),
    "tsv": CatalogRow(build_tsv_lie, lie=True),
})

#: what each claim of ``CatalogRow`` states, as a refusal names it
_CLAIMS = {
    "extra_at_a1": "non-inner derivation dimension",
    "m_family": "M-valued family",
    "extension_point": "classification extension point",
    "c4": "criterion-4 dichotomy",
}


def _states(value) -> bool:
    """Whether a claim field states a claim (0 does; None and False do not)."""
    return value is not None and value is not False


def claim(identifier: str, kind: str):
    """The ``kind`` claim of the algebra ``identifier``; ``NoClaim``, naming
    the algebra, when the catalog states none."""
    value = getattr(CATALOG.get(identifier), kind, None)
    if not _states(value):
        raise NoClaim(f"the catalog states no {_CLAIMS[kind]} for {identifier}")
    return value


def claimed(kind: str) -> tuple[str, ...]:
    """The identifiers of the algebras with a ``kind`` claim, in table order."""
    return tuple(ident for ident, row in CATALOG.items() if _states(getattr(row, kind)))


def build_algebra(identifier: str, **params: ParamLike) -> AlgebraSpec:
    """Build a conformal algebra by its public identifier.

    It reads the row's ``params`` from ``params`` (a missing one is ``sym``)
    and ignores every other one."""
    row = CATALOG.get(identifier.lower())
    if row is None:
        raise ValueError(f"unknown algebra identifier {identifier!r}")
    if row.lie:
        raise ValueError(f"{identifier} is a plain graded Lie algebra; only verify-axioms "
                         "handles it")
    return row.build(**{key: value for key, value in params.items() if key in row.params})
