"""Guided classification of rank-one and graded conformal modules.

The classifiers are guided: each step is one coefficient-comparison
implication, stated as an exact polynomial fact that the engine verifies
before using its conclusion.  The nonlinear steps rest on two mechanically
checked certificates:

* self-commuting shape: any bounded-degree solution p of
  ``p(d+l, m) p(d, l) = p(d+m, l) p(d, m)`` is free of ``d``.  For each
  leading profile (t, s) the coefficient of ``l^(t+s)`` in the difference
  equals (top-d slice in m) * (top-l slice in d); a product of two nonzero
  polynomials cannot vanish in an integral domain, so no solution has
  d-degree t >= 1.  The factorization identity is proved from leading
  terms, for the generic p over the box [0,t] x [0,s]: the factor
  p(d+l, m) has l-degree <= t with l^t coefficient the top-d slice, p(d, l)
  has l-degree <= s with l^s coefficient the top-l slice, and the l-degrees
  of p(d+m, l) and p(d, m) sum to less than t + s.  These are exact
  identities on the factors of the action side, and in any commutative
  ring they fix the l^(t+s) coefficient of the difference without
  forming the product.

* homogeneity: once the weight equation and the j = 0 relations pin a
  table up to one scalar factor, F acting by scalar * T and M by 0, every
  term of the module identity for (F, G) carries the scalar once per
  argument or bracket target in F.  So each residual is the scalar to a
  fixed power times a residual free of it, and one nonzero instance forces
  the scalar to vanish.

The weight equation ``W(l, m) p(l+m) = -m p(m)`` with ``W = A l - m + B``
decides where extensions live: its kernel is zero unless (A, B) = (0, 0),
where it is the constants.  For the Y family of the Schroedinger-Virasoro
type algebra ``(A, B) = (a/2, b/2)``, so extensions need a = b = 0; for the
M family of the Heisenberg-Virasoro type algebra ``(A, B) = (a-1, b)``,
so extensions need a = 1, b = 0.

The graded classifier settles every coefficient table with one procedure
(``_constant_extension``): the weight equation pins the index-0
coefficients to zero or to constants, and the j = 0 relations propagate
them across indices, leaving a scalar times a fixed table T, the difference
quotient of the L-action (``_quotient_table``, defined at every index).  It
runs for the M table of csv, which its necessity step then forces to 0, and
for the table of the extension family (``modules.extension_family``: Y on
csv, M on chv).  Each table that survives is decided by reading
``module_residuals`` up to its first nonzero residual, whose key names the
break: csv's M table on the M family alone, which checks exactly the (M, M)
relation (without a break, the (M_0, Y_0)/(Y_0, Y_0) contradiction forces
the scalar to 0), and the extension table with L acting by f and the family
by d * T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .catalog import ParamLike, as_param, build_algebra, restrict_families
from .lca import (
    POLY_L,
    POLY_L_PLUS_M,
    POLY_M,
    VAR_D,
    VAR_L,
    VAR_M,
    AlgebraSpec,
    DegreeBoundExceeded,
    weight_of,
)
from .linsolve import SparseRow, reduce_rows
from .modules import (
    MODULE_SYMBOLS,
    BitSeq,
    CoeffFn,
    GradedModule,
    Rank1Module,
    _as_bracket_var,
    build_graded,
    build_module,
    build_rank1,
    extension_family,
    graded_from_tables,
    module_residuals,
    two_action_difference,
    two_action_factors,
)
from .poly import GaussianRational, MPoly

_ONE = MPoly.const(1)
_DFREE_STEP = "d-free certificate"


class StepFailed(ValueError):
    """A guided classification step whose statement did not hold.

    ``steps`` is the step trace of the run, ending with the failed step.
    """

    def __init__(self, message: str, steps: Sequence["ClassifyStep"] = ()):
        super().__init__(message)
        self.steps = list(steps)

    @classmethod
    def at(cls, steps: Sequence["ClassifyStep"]) -> "StepFailed":
        """The failure of the last step of ``steps``."""
        last = steps[-1]
        return cls(f"classification step failed: {last.name}: {last.statement}", steps)

    @property
    def trace(self) -> str:
        return "; ".join(str(step) for step in self.steps)


@dataclass
class ClassifyStep:
    name: str
    statement: str
    ok: bool

    def __str__(self) -> str:
        flag = "ok" if self.ok else "FAILED"
        return f"[{flag}] {self.name}: {self.statement}"


@dataclass
class ClassifyOutcome:
    """Solution family of a classification run."""

    algebra: str
    a: GaussianRational
    b: GaussianRational
    kind: str
    extension_dim: int
    families: dict[str, str]
    steps: list[ClassifyStep] = field(default_factory=list)
    collapsed: bool = False
    note: str = ""

    @property
    def has_extension(self) -> bool:
        return self.extension_dim > 0

    def step(self, name: str, statement: str, ok: bool = True) -> None:
        self.steps.append(ClassifyStep(name, statement, ok))
        if not ok:
            raise StepFailed.at(self.steps)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _generic_box(prefix: str, dmax: int, lmax: int) -> tuple[MPoly, dict[tuple[int, int], str]]:
    """Generic polynomial over the exponent box [0,dmax] x [0,lmax]."""
    names = {
        (k, q): f"{prefix}_{k}_{q}" for k in range(dmax + 1) for q in range(lmax + 1)
    }
    poly = MPoly({((name, 1), (VAR_D, k), (VAR_L, q)): 1 for (k, q), name in names.items()})
    return poly, names


def _dfree_profile_failure(t: int, s: int) -> str | None:
    """The first leading-term fact that fails at profile (t, s), or None.

    The facts are read off the four factors that the action side
    ``two_action_difference(p, p, p, p)`` multiplies, for the generic p over
    the box [0,t] x [0,s].
    """
    p, names = _generic_box("u", t, s)
    x, y, z, w = two_action_factors(p, p, p, p)
    gamma = MPoly({((names[(t, q)], 1), (VAR_M, q)): 1 for q in range(s + 1)})
    sigma = MPoly({((names[(k, s)], 1), (VAR_D, k)): 1 for k in range(t + 1)})
    facts = (
        ("degree bound", f"deg_l p(d+l,m) <= {t}", x.degree_in(VAR_L) <= t),
        (
            "leading factor",
            f"the l^{t} coefficient of p(d+l,m) is sum_q u_{t}_q m^q",
            x.coeff_extract([VAR_L], {VAR_L: t}) == gamma,
        ),
        ("degree bound", f"deg_l p(d,l) <= {s}", y.degree_in(VAR_L) <= s),
        (
            "leading factor",
            f"the l^{s} coefficient of p(d,l) is sum_k u_k_{s} d^k",
            y.coeff_extract([VAR_L], {VAR_L: s}) == sigma,
        ),
        (
            "low-degree side",
            f"deg_l p(d+m,l) + deg_l p(d,m) < {t + s}",
            z.degree_in(VAR_L) + w.degree_in(VAR_L) < t + s,
        ),
    )
    for fact, claim, holds in facts:
        if not holds:
            return f"profile ({t},{s}): {fact} fails: {claim} does not hold"
    return None


#: the largest degree bound certified so far; the profiles at a bound
#: include those at every smaller bound
_dfree_cache = 0


def certify_self_commuting_d_free(degree_bound: int) -> None:
    """Verify the leading-coefficient factorization behind the d-freeness step.

    For every profile (t, s) with 1 <= t <= degree_bound, 0 <= s <=
    degree_bound, the coefficient of l^(t+s) in
    ``p(d+l,m) p(d,l) - p(d+m,l) p(d,m)`` equals
    ``gamma(m) * sigma(d) = (sum_q u[t,q] m^q) * (sum_k u[k,s] d^k)`` for
    the generic p over the box [0,t] x [0,s].  The proof reads only the
    factors x = p(d+l,m), y = p(d,l), z = p(d+m,l), w = p(d,m) and checks
    five exact facts: deg_l x <= t, the l^t coefficient of x is gamma,
    deg_l y <= s, the l^s coefficient of y is sigma, and
    deg_l z + deg_l w < t + s.  In any commutative ring the first four give
    that the l^(t+s) coefficient of x*y is gamma*sigma (every other pair of
    l-degrees summing to t+s needs a coefficient of x above l^t or of y
    above l^s), and the fifth gives that z*w has no l^(t+s) term.  So the
    identity holds exactly, without forming either product.

    A profile whose facts fail raises ``StepFailed`` with a failed
    "d-free certificate" step that names the profile and the fact.
    """
    global _dfree_cache
    if degree_bound <= _dfree_cache:
        return
    for t in range(1, degree_bound + 1):
        for s in range(0, degree_bound + 1):
            if max(t, s) <= _dfree_cache:
                continue
            failure = _dfree_profile_failure(t, s)
            if failure is not None:
                raise StepFailed.at([ClassifyStep(_DFREE_STEP, failure, ok=False)])
    _dfree_cache = degree_bound


def _dfree_yy_vanishes(degree_bound: int) -> bool:
    """Whether the (Y, Y) left side vanishes for generic d-free coefficients.

    With d-free h the self-commuting difference h_j(m) h_i(l) - h_i(l) h_j(m)
    is identically zero, so the (Y, Y) identity reduces to
    0 = (l - m) g(l + m) and forces the M-coefficient g to vanish.  This
    holds whatever the coefficients at other indices are.
    """
    hi, _ = _generic_box("hi", 0, degree_bound)
    hj, _ = _generic_box("hj", 0, degree_bound)
    return two_action_difference(hj, hi, hi, hj).is_zero()


def weight_equation_kernel(A: GaussianRational, B: GaussianRational, degree_bound: int) -> list[MPoly]:
    """Kernel of ``(A l - m + B) p(l+m) + m p(m) = 0`` for deg p <= bound.

    Returns a basis of solutions as polynomials in ``l``.  The column of
    ``l^q`` is ``w (l+m)^q + m^(q+1)``; ``(l+m)^q`` is carried from one q
    to the next with one product, and ``m^(q+1)`` is a single term.
    """
    w = POLY_L.scale(A) - POLY_M + MPoly.const(B)
    cols = degree_bound + 1
    rows: dict[tuple, SparseRow] = {}
    power = MPoly.const(1)                  # (l+m)^q
    for q in range(cols):
        if q:
            power = power * POLY_L_PLUS_M
        contribution = w * power + MPoly.var(VAR_M, q + 1)
        for mono, coeff in contribution.terms.items():
            rows.setdefault(mono, {})[q] = coeff
    ech = reduce_rows(list(rows.values()), None, cols)
    basis = []
    for vec in ech.kernel_basis():
        p = MPoly.zero()
        for q, coeff in enumerate(vec):
            if coeff:
                p = p + MPoly.var(VAR_L, q).scale(coeff)
        basis.append(p)
    return basis


def _require_numeric(value: ParamLike, name: str) -> GaussianRational:
    p = as_param(value, name)
    if not p.is_constant():
        raise ValueError(f"classification needs numeric {name}")
    return p.constant_value()


def _open_outcome(
    algebra: str, a: ParamLike, b: ParamLike, kind: str, l_family: str, degree_bound: int
) -> tuple[AlgebraSpec, ClassifyOutcome]:
    """The algebra at numeric (a, b) and an outcome opened by the d-free step.

    Every family but L starts at "0"; a classifier that finds the scalar
    extension writes it into the extension family.
    """
    av = _require_numeric(a, "a")
    bv = _require_numeric(b, "b")
    if algebra not in ("csv", "chv"):
        raise ValueError(f"classification targets csv or chv, not {algebra!r}")
    spec = build_algebra(algebra, a=av, b=bv)
    families = {fam: "0" for fam in spec.families}
    families["L"] = l_family
    out = ClassifyOutcome(
        algebra=algebra, a=av, b=bv, kind=kind, extension_dim=0, families=families
    )
    # the certificate is the first step, so a StepFailed it raises carries
    # the whole trace
    certify_self_commuting_d_free(degree_bound)
    out.step(
        _DFREE_STEP,
        f"self-commuting relations force d-free coefficients up to degree {degree_bound}",
    )
    return spec, out


# ---------------------------------------------------------------------------
# rank-one classification
# ---------------------------------------------------------------------------


def classify_rank1(
    algebra: str,
    a: ParamLike,
    b: ParamLike,
    degree_bound: int = 6,
) -> ClassifyOutcome:
    """Classify free rank-one modules over csv or chv at numeric (a, b).

    The L-action is fixed to ``c^i (d + alpha*l + beta)`` (the loop-Virasoro
    rank-one classification, taken as given); the classifier determines the
    remaining coefficient families exactly.
    """
    spec, out = _open_outcome(
        algebra, a, b, "rank1", "c^i*(d + alpha*l + beta)", degree_bound
    )
    # the M-on-M identity has zero bracket side, giving the self-commuting shape
    out.step(
        "M bracket vanishes",
        "[M _l M] = 0, so the (M, M) identity is the self-commuting shape "
        "and the M-coefficient g is d-free",
        ok=not spec.templates("M", "M"),
    )

    if "Y" in spec.families:
        # Either g = 0, or (via the (M, Y) identity with [M _l Y] = 0) the
        # Y-coefficient h is shift-invariant, hence d-free; then the (Y, Y)
        # identity reads h_j(m) h_i(l) - h_i(l) h_j(m) = (l - m) g(l+m),
        out.step(
            "MY bracket vanishes",
            "[M _l Y] = 0, so nonzero g forces h(d+l, m) = h(d, m)",
            ok=not spec.templates("M", "Y"),
        )
        out.step(
            "YY forces g = 0",
            "with d-free h the (Y, Y) left side vanishes identically, so "
            "(l - m) g(l + m) = 0 and g = 0 in both branches",
            ok=_dfree_yy_vanishes(degree_bound),
        )
    # the L-action difference that drives every weight equation
    f_template = build_rank1(spec).template("L")
    diff = f_template - f_template.shift(VAR_D, POLY_M)
    out.step(
        "L-action shift difference",
        "f(d, l) - f(d+m, l) = -m for the fixed rank-one L-action",
        ok=diff == -POLY_M,
    )

    ext_family = extension_family(spec.families)
    A, B = weight_of(spec, ext_family)
    kernel = weight_equation_kernel(A, B, degree_bound)
    w_text = f"({A})*l - m + ({B})"
    if not kernel:
        out.step(
            "weight equation",
            f"W(l,m) p(l+m) = -m p(m) with W = {w_text} has only the zero "
            f"solution, so the {ext_family}-coefficient vanishes",
        )
        return out
    out.step(
        "weight equation",
        f"W(l,m) p(l+m) = -m p(m) with W = {w_text} has the constants as "
        "solution space",
        ok=len(kernel) == 1 and kernel[0].is_constant(),
    )
    # cross-index instance with general i: W d_{i+j} = -m c^i d_j and
    # W = -m here, so d_{i+j} = c^i d_j; j = 0 gives d_i = c^i d_0.
    out.step(
        "index recursion",
        "the general-index instance gives d_{i+j} = c^i d_j, so "
        "d_i = d * c^i with d = d_0",
        ok=(A == GaussianRational.of(0) and B == GaussianRational.of(0)),
    )
    out.families[ext_family] = "d*c^i"
    out.extension_dim = 1
    return out


# ---------------------------------------------------------------------------
# graded classification
# ---------------------------------------------------------------------------


def classify_graded(
    algebra: str,
    a: ParamLike,
    b: ParamLike,
    base: str = "vab",
    degree_bound: int = 6,
    n_basis: int = 3,
    k_gen: int = 2,
    bitseq: BitSeq | None = None,
) -> ClassifyOutcome:
    """Classify graded intermediate-series modules over csv or chv.

    The L-coefficients are fixed by the loop-Virasoro classification (the
    ``vab`` uniform weights or the ``vAb`` case split over a bit sequence);
    the solver determines the M- and Y-coefficient tables on the window
    ``|generator index| <= k_gen``, ``|basis index| <= n_basis``.  Each
    table is pinned by ``_constant_extension`` to a scalar times a table T,
    and csv's M table is forced to 0 before the Y table is settled.  With F
    acting by scalar * T and M by 0, every term of the identity for (F, G)
    carries the scalar once per argument or bracket target in F, so each
    residual is homogeneous in the scalar and one nonzero residual forces it
    to 0.  Each table is decided by reading ``module_residuals`` up to its
    first nonzero residual; every collapse step names that instance
    ``(F, G, i, j, m)``.
    """
    if base == "vAb" and bitseq is None:
        raise ValueError("vAb classification needs a bit sequence")
    spec, out = _open_outcome(algebra, a, b, f"graded-{base}", base, degree_bound)
    base_module = build_graded(
        spec, base, bitseq if base == "vAb" else "sym", "sym", 0
    )

    def f(i: int, m: int) -> MPoly:
        return base_module.action("L", i, m)

    out.step(
        "L-action shift difference",
        "f[0,m](d,l) - f[0,m](d+m,l) = -m on the whole basis window",
        ok=all(
            f(0, m) - f(0, m).shift(VAR_D, POLY_M) == -POLY_M
            for m in range(-n_basis, n_basis + 1)
        ),
    )

    family = extension_family(spec.families)
    if family == "Y":
        g_table = _constant_extension(out, spec, "M", f, n_basis, k_gen, degree_bound)
        if g_table is not None:
            # M alone: the (M, M) relation, with L acting by 0 as the step states
            m_only = restrict_families(spec, ["M"], spec.name)
            m_module = graded_from_tables(("M",), {"M": g_table}, base_module.bitseq)
            collapse = next(
                (key for key, r in module_residuals(m_only, m_module, n_basis, k_gen) if r),
                None,
            )
            if collapse is not None:
                out.step(
                    "MM quadratic consistency",
                    f"with M acting by e*T the (M, M) relation is e^2 times a "
                    f"residual that is nonzero at {collapse}, forcing e = 0",
                )
                out.collapsed = True
            else:
                # only the index-0 tables enter; the others need not be 1
                index0_flat = all(
                    g_table(0, m) == _ONE for m in range(-n_basis, n_basis + 1)
                )
                out.step(
                    "MY/YY contradiction",
                    "g[0,m] = e, so with nonzero e the (M_0, Y_0) relation makes "
                    "h[0,m] d-free, and then (Y_0, Y_0) reads 0 = (l - m) e, "
                    "so e = 0",
                    ok=index0_flat
                    and not spec.templates("M", "Y")
                    and _dfree_yy_vanishes(degree_bound),
                )
        out.step(
            "YY self-commuting",
            "with g = 0 the (Y, Y) relation is the self-commuting shape, so "
            "h[0,m] is d-free",
        )

    table = _constant_extension(out, spec, family, f, n_basis, k_gen, degree_bound)
    if table is None:
        return out
    flat = all(
        table(i, m) == _ONE
        for i in range(-k_gen, k_gen + 1)
        for m in range(-n_basis, n_basis + 1)
    )
    scalar = MPoly.var(MODULE_SYMBOLS["d"])
    extension = graded_from_tables(
        spec.families, {"L": f, family: lambda i, m: scalar * table(i, m)}, base_module.bitseq
    )
    bad = next(
        (key for key, r in module_residuals(spec, extension, n_basis, k_gen) if r), None
    )
    if bad is not None:
        out.step(
            f"{family} consistency",
            f"with L acting by f, {family} by d*T and every other family by 0, "
            f"the module identity is d^k times a residual that is nonzero at "
            f"{bad}, forcing d = 0",
        )
        out.collapsed = True
        return out
    out.step(
        f"{family} sufficiency",
        f"the {family}-extension d*T is flat and passes the full module axiom "
        "check on the window",
        ok=flat,
    )
    out.families[family] = "d"
    out.extension_dim = 1
    out.note = f"{family}-extension survives all relations on the window"
    return out


def _constant_extension(
    out: ClassifyOutcome,
    spec: AlgebraSpec,
    family: str,
    f: CoeffFn,
    n_basis: int,
    k_gen: int,
    degree_bound: int,
) -> CoeffFn | None:
    """Settle one coefficient table up to a scalar: weight equation, then j = 0.

    The weight equation of ``family`` decides the index-0 coefficients (zero
    or constants); the j = 0 relations then propagate them across indices.
    Records both steps and returns the table normalized to scalar 1, or
    None when the table is forced to 0.
    """
    A, B = weight_of(spec, family)
    kernel = weight_equation_kernel(A, B, degree_bound)
    w_text = f"W = ({A})*l - m + ({B})"
    if not kernel:
        out.step(
            f"{family} weight equation",
            f"{w_text} has zero kernel, so the index-0 {family}-coefficients "
            "vanish and the j = 0 relations force the whole table to 0",
        )
        return None
    out.step(
        f"{family} weight equation",
        f"{w_text} admits constant index-0 solutions",
        ok=len(kernel) == 1 and kernel[0].is_constant(),
    )
    table = _quotient_table(f, n_basis, k_gen, degree_bound)
    out.step(
        f"{family} cross-index propagation",
        "the j = 0 relations admit only the zero scalar, so the table is 0"
        if table is None
        else f"the j = 0 relations pin the {family} table to a scalar times "
        "T[i,m], constant at index 0",
    )
    return table


def _quotient_table(f: CoeffFn, n_basis: int, k_gen: int, degree_bound: int) -> CoeffFn | None:
    """Solve the j = 0 relations given constant index-0 coefficients e_m.

    The (i, m) relation reads

        e_m f[i,m](d,l) - f[i,m](d+m',l) e_{i+m} = -m' t[i,m](d, l+m').

    Its m'-free part forces every reachable e_{i+m} = e_m (the L-action is
    never zero), so e_m = e uniformly; dividing the rest by m' determines
    t[i,m] as e times the difference quotient T[i,m](d, l) with
    ``f(d+m',l) - f(d,l) = m' T(d, l+m')``, provided it is a polynomial in
    (d, l+m') - otherwise only e = 0 survives.  The relations are solved on
    the window ``|i| <= k_gen``, ``|m| <= n_basis``: None when only e = 0
    survives there, ``DegreeBoundExceeded`` when T needs a degree above the
    bound, and otherwise T (e = 1) as a table defined at every index.  T is
    memoised per distinct f[i,m] for as long as the table lives; off the
    window, an f[i,m] without a polynomial quotient is a ``ValueError``.
    """
    quotients: dict[MPoly, MPoly | None] = {}

    def quotient(fim: MPoly) -> MPoly | None:
        if fim not in quotients:
            diff = (fim.shift(VAR_D, POLY_M) - fim).divide_exact(POLY_M)
            candidate = diff.substitute(VAR_L, 0).substitute(VAR_M, POLY_L)
            polynomial = _as_bracket_var(candidate, POLY_L_PLUS_M) == diff
            quotients[fim] = candidate if polynomial else None
        return quotients[fim]

    for i in range(-k_gen, k_gen + 1):
        for m in range(-n_basis, n_basis + 1):
            fim = f(i, m)
            # a zero f cannot tie e_m to e_{i+m}: not a base this solver handles
            tim = None if fim.is_zero() else quotient(fim)
            if tim is None:
                return None
            if tim.degree() > degree_bound:
                raise DegreeBoundExceeded(
                    f"propagated table at ({i},{m}) needs degree {tim.degree()}"
                )

    def table(i: int, m: int) -> MPoly:
        fim = f(i, m)
        tim = quotient(fim)
        if tim is None:
            raise ValueError(f"f[{i},{m}] = {fim} has no polynomial difference quotient")
        return tim

    return table


def materialize(
    outcome: ClassifyOutcome,
    spec: AlgebraSpec,
    bitseq: BitSeq | None = None,
) -> Rank1Module | GradedModule:
    """Build the classified family with symbolic module parameters; the
    extension scalar ``d`` is symbolic when the family has the extension and
    0 otherwise.  A ``graded-vAb`` outcome needs its ``bitseq``."""
    return build_module(
        spec, outcome.kind, {"d": "sym"} if outcome.extension_dim else {}, bitseq
    )
