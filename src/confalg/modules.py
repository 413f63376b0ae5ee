"""Conformal modules: rank-one and graded intermediate-series builders,
the module-axiom checker, the hand-coded relation oracle, and the
reducibility witness of a rank-one module, decided at every degree by one
gcd.

Every residual of the module identity ``x.(y.v) - y.(x.v) - [x_l y].v``
comes from one stream, ``module_residuals``, which yields ``(key,
residual)`` per instance in a fixed order.  ``check_module_axioms``
collects the whole stream; the guided classifier reads it only up to the
first nonzero residual.  The action side of the identity,
``two_action_difference``, is shared with the classifier, and the factors
it multiplies, ``two_action_factors``, with the classifier's d-free
certificate.  ``relations_oracle`` is the one deliberate second encoding,
written out by hand and kept as an independent oracle.

The residual for (F_i, G_j) on v_m reads the actions only at (j, m),
(i, j+m), (i, m), (j, i+m) and, for each bracket target H, (i+j, m); the
bracket templates are index-free.  So it is a function of the family pair
and those action polynomials alone, and the stream computes it once per
distinct such input and reuses it for every instance that shares the
input.  A ``build_graded`` table (``vab`` or ``vAb``) acts on v_m by a
value fixed by the bits at m and i+m (by nothing, for ``vab``), so there
the input is fixed by the bits at m, i+m, j+m and i+j+m, and the stream
keys each family pair's instances by that pattern before it reads an
action.  A module says so by ``bit_keyed``: every ``build_graded`` module,
and a custom one (``graded_from_tables``) only when its builder states that
each table reads only the bits at m and i+m, as the classifier does for
its two tables, each a function of the base's L-action at (i, m).  Other
custom modules, which may read their indices in any way, keep the by-value
key.  The stream also reads each action once, makes each variable change of
an action value once, and forms the bracket heads once per family pair.  The oracle reads and counts
every sample, and computes each distinct (relation, table values it reads)
once per call, and each variable change of a table value once per call.
Every such memo ends with its stream or call.

Graded actions ``F_i . v_m = T_F(i, m)(d, l) * v_{i+m}`` are checked on an
explicit index window.  Rank-one actions have the form
``F_i . v = c^i * T_F(d, l) * v``.  Because every term of the module
identity for a pair (F_i, G_j) carries the same factor ``c^(i+j)``, the
stream has one instance per family pair, at ``(i, j, m) = (0, 0, 0)``
on the index-free templates; a zero template residual certifies the
identity for every index pair (and for every nonzero value of ``c``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .catalog import ParamLike, as_param
from .lca import (
    POLY_L,
    POLY_L_PLUS_M,
    POLY_M,
    VAR_D,
    VAR_L,
    VAR_M,
    AlgebraSpec,
    WindowTooSmall,
    _refuse_negative,
    line_poly,
    text_lines,
)
from .poly import GaussianRational, MPoly

#: default symbol names for module parameters passed as "sym".  The module
#: generator symbol already occupies the name "d", so the scalar extension
#: parameter is spelled "dd" in polynomial contexts.
MODULE_SYMBOLS = {"alpha": "alpha", "beta": "beta", "c": "c", "d": "dd"}

CoeffFn = Callable[[int, int], MPoly]

_ZERO = MPoly.zero()


@dataclass(frozen=True)
class BitSeq:
    """A 0/1 sequence on a finite index window."""

    lo: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @property
    def hi(self) -> int:
        return self.lo + len(self.bits) - 1

    def at(self, index: int) -> int:
        if not (self.lo <= index <= self.hi):
            raise WindowTooSmall(
                f"bit sequence covers [{self.lo}, {self.hi}] but index {index} is needed"
            )
        return self.bits[index - self.lo]

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @staticmethod
    def from_string(text: str, lo: int) -> "BitSeq":
        return BitSeq(lo, tuple(int(ch) for ch in text.strip()))

    @staticmethod
    def random(rng: random.Random, lo: int, hi: int) -> "BitSeq":
        return BitSeq(lo, tuple(rng.randint(0, 1) for _ in range(hi - lo + 1)))

    def is_constant(self) -> bool:
        return len(set(self.bits)) <= 1


def extension_family(families: tuple[str, ...]) -> str | None:
    """The family carrying the scalar extension: Y if present, else M."""
    return "Y" if "Y" in families else ("M" if "M" in families else None)


@dataclass
class Rank1Module:
    """Free rank-one module: templates per family, scaled by ``c^i``."""

    families: tuple[str, ...]
    alpha: MPoly
    beta: MPoly
    c: MPoly
    d: MPoly
    templates: dict[str, MPoly]

    kind = "rank1"

    def template(self, family: str) -> MPoly:
        return self.templates.get(family, _ZERO)

    def is_numeric(self) -> bool:
        return all(
            p.is_constant() for p in (self.alpha, self.beta, self.c, self.d)
        )

    def c_value(self) -> GaussianRational:
        return self.c.constant_value()

    def action(self, family: str, index: int) -> MPoly:
        """Explicit action template of ``F_index`` (numeric ``c`` only)."""
        t = self.template(family)
        cval = self.c_value()
        if not cval:
            return t if index == 0 else _ZERO
        return t.scale(cval**index)

    def all_actions_zero(self) -> bool:
        return all(t.is_zero() for t in self.templates.values())


def build_rank1(
    spec: AlgebraSpec,
    alpha: ParamLike = "sym",
    beta: ParamLike = "sym",
    c: ParamLike = "sym",
    d: ParamLike = 0,
) -> Rank1Module:
    """Rank-one module over ``spec``: L acts by ``c^i (d + alpha*l + beta)``.

    The scalar slot ``d`` extends the action of the Y family (or of M when
    the algebra has no Y family); the checker, not the builder, decides for
    which algebra parameters the result is actually a module.
    """
    pa = as_param(alpha, MODULE_SYMBOLS["alpha"])
    pb = as_param(beta, MODULE_SYMBOLS["beta"])
    pc = as_param(c, MODULE_SYMBOLS["c"])
    pd = as_param(d, MODULE_SYMBOLS["d"])
    templates: dict[str, MPoly] = {}
    if "L" in spec.families:
        templates["L"] = MPoly.var(VAR_D) + pa * POLY_L + pb
    ext_family = extension_family(spec.families)
    for fam in spec.families:
        if fam == "L":
            continue
        templates[fam] = pd if fam == ext_family else _ZERO
    return Rank1Module(
        families=spec.families, alpha=pa, beta=pb, c=pc, d=pd, templates=templates
    )


@dataclass
class GradedModule:
    """Graded free intermediate-series module with explicit coefficient tables.

    ``kind`` is ``vab`` or ``vAb`` for ``build_graded``'s tables; any other
    table is ``custom``.  ``bit_keyed`` states that every table reads only
    the bits of ``bitseq`` at m and i+m (no index at all without a
    ``bitseq``), so the module-identity stream may key residuals by bit
    pattern; it holds for every ``build_graded`` module.
    """

    families: tuple[str, ...]
    kind: str                       # "vab" | "vAb" | "custom"
    coeffs: dict[str, CoeffFn]
    params: dict[str, MPoly] = field(default_factory=dict)
    bitseq: BitSeq | None = None
    bit_keyed: bool = False

    def action(self, family: str, gen_index: int, basis_index: int) -> MPoly:
        fn = self.coeffs.get(family)
        return fn(gen_index, basis_index) if fn is not None else _ZERO


def build_graded(
    spec: AlgebraSpec,
    kind: str,
    alpha_or_bits: ParamLike | BitSeq = "sym",
    beta: ParamLike = "sym",
    d: ParamLike = 0,
) -> GradedModule:
    """Graded module of kind ``vab`` (uniform weights) or ``vAb`` (case split).

    The extension slot ``d`` feeds the Y family action (M for algebras
    without Y): ``F_i . v_m = d * v_{i+m}``.
    """
    pb = as_param(beta, MODULE_SYMBOLS["beta"])
    pd = as_param(d, MODULE_SYMBOLS["d"])
    dvar = MPoly.var(VAR_D)
    params: dict[str, MPoly] = {"beta": pb, "d": pd}
    bits: BitSeq | None = None
    if kind == "vab":
        pa = as_param(alpha_or_bits, MODULE_SYMBOLS["alpha"])
        params["alpha"] = pa
        base = dvar + pa * POLY_L + pb

        def f_action(i: int, m: int, _t: MPoly = base) -> MPoly:
            return _t

    elif kind == "vAb":
        if not isinstance(alpha_or_bits, BitSeq):
            raise TypeError("vAb modules need a BitSeq")
        bits = alpha_or_bits
        low = dvar + pb
        high = dvar + pb + POLY_L
        cases = {
            (0, 0): low,
            (1, 1): high,
            (0, 1): MPoly.const(1),
            (1, 0): low * high,
        }

        def f_action(i: int, m: int, _bits: BitSeq = bits, _cases=cases) -> MPoly:
            return _cases[(_bits.at(m), _bits.at(i + m))]

    else:
        raise ValueError(f"unknown graded module kind {kind!r}")

    coeffs: dict[str, CoeffFn] = {"L": f_action}
    ext_family = extension_family(spec.families)
    for fam in spec.families:
        if fam == "L":
            continue
        if fam == ext_family and not pd.is_zero():
            coeffs[fam] = lambda i, m, _p=pd: _p
    return GradedModule(
        families=spec.families, kind=kind, coeffs=coeffs, params=params, bitseq=bits,
        bit_keyed=True,
    )


def graded_from_tables(
    families: tuple[str, ...],
    tables: Mapping[str, CoeffFn],
    bitseq: BitSeq | None = None,
    bit_keyed: bool = False,
) -> GradedModule:
    """Custom graded module from raw coefficient tables.

    Pass ``bit_keyed`` only when every table at (i, m) reads only the bits
    of ``bitseq`` at m and i+m (nothing without a ``bitseq``); the
    module-identity stream then keys residuals by bit pattern.
    """
    return GradedModule(
        families=families, kind="custom", coeffs=dict(tables), bitseq=bitseq,
        bit_keyed=bit_keyed,
    )


# ---------------------------------------------------------------------------
# module axiom checker
# ---------------------------------------------------------------------------


def _as_bracket_var(template: MPoly, var: str | MPoly) -> MPoly:
    """Instantiate an action template (in d, l) at another bracket variable."""
    if isinstance(var, str):
        if var == VAR_L:
            return template
        var = POLY_M if var == VAR_M else MPoly.var(var)
    return template.substitute(VAR_L, var)


@dataclass
class ModuleReport:
    """Outcome of a module-axiom or relation-oracle run."""

    module_kind: str
    checked: int = 0
    residuals: dict = field(default_factory=dict)   # key -> nonzero MPoly
    notes: list[str] = field(default_factory=list)

    @property
    def all_zero(self) -> bool:
        return not self.residuals


#: a variable change of an action value p(d, l), and a way to make one
Change = Callable[[MPoly], MPoly]
At = Callable[[Change, MPoly], MPoly]


def _at_m_shifted(p: MPoly) -> MPoly:     # p(d+l, m)
    return _as_bracket_var(p, VAR_M).shift(VAR_D, POLY_L)


def _shifted_by_m(p: MPoly) -> MPoly:     # p(d+m, l)
    return p.shift(VAR_D, POLY_M)


def _at_m(p: MPoly) -> MPoly:             # p(d, m)
    return _as_bracket_var(p, VAR_M)


def _at_l_plus_m(p: MPoly) -> MPoly:      # p(d, l+m)
    return _as_bracket_var(p, POLY_L_PLUS_M)


def _apply(change: Change, value: MPoly) -> MPoly:
    return change(value)


def _change_memo() -> At:
    """``at(change, value)``: ``change(value)``, made once per distinct
    (change, value) for as long as the returned ``at`` lives."""
    made: dict[tuple[Change, MPoly], MPoly] = {}

    def at(change: Change, value: MPoly) -> MPoly:
        key = (change, value)
        out = made.get(key)
        if out is None:
            out = made[key] = change(value)
        return out

    return at


def two_action_factors(
    x_jm: MPoly, y_i_jm: MPoly, z_im: MPoly, w_j_im: MPoly, at: At = _apply
) -> tuple[MPoly, MPoly, MPoly, MPoly]:
    """The four factors that ``two_action_difference`` multiplies.

    ``(x(d+l, m), y(d, l), z(d+m, l), w(d, m))`` for action templates in
    (d, l), with ``m`` the second bracket variable.  ``at(change, value)``
    makes each variable change; the stream passes one that makes it once
    per distinct value.
    """
    return (
        at(_at_m_shifted, x_jm),
        y_i_jm,
        at(_shifted_by_m, z_im),
        at(_at_m, w_j_im),
    )


def two_action_difference(
    x_jm: MPoly, y_i_jm: MPoly, z_im: MPoly, w_j_im: MPoly, at: At = _apply
) -> MPoly:
    """Action side of every two-action relation.

    ``x(d+l, m) y(d, l) - z(d+m, l) w(d, m)``, with ``m`` the second bracket
    variable: for x = G_j, y = F_i on v_(j+m), z = F_i, w = G_j on v_(i+m),
    it is ``F_i.(G_j.v_m) - G_j.(F_i.v_m)``.  ``at`` is as for
    ``two_action_factors``.
    """
    x, y, z, w = two_action_factors(x_jm, y_i_jm, z_im, w_j_im, at)
    return x * y - z * w


def window_reach(n_basis: int, k_gen: int) -> int:
    """Half-width of the basis window that the graded module identity reads.

    The identity on v_m for generators of index i and j reads the module at
    m, i+m, j+m and i+j+m, so over |m| <= n_basis, |i|, |j| <= k_gen it
    reaches [-(n_basis + 2*k_gen), n_basis + 2*k_gen].
    """
    return n_basis + 2 * k_gen


def _bit_pattern(module: Rank1Module | GradedModule) -> Callable[[int, int, int], tuple | None]:
    """``pattern(i, j, m)``: the key under which the stream shares one
    family pair's residual between instances.  For a ``bit_keyed`` module
    it is the bits at m, i+m, j+m and i+j+m, or ``()`` without a bit
    sequence; rank-one modules and custom modules that are not
    ``bit_keyed``, whose tables may read their indices in any way, get
    None (shared by value only).  The bits are read from the tuple with no
    range check: the caller has checked that the sequence covers every
    index the stream reads."""
    if isinstance(module, Rank1Module) or not module.bit_keyed:
        return lambda i, j, m: None
    if module.bitseq is None:
        return lambda i, j, m: ()
    bits, lo = module.bitseq.bits, module.bitseq.lo
    return lambda i, j, m: (bits[m - lo], bits[i + m - lo], bits[j + m - lo], bits[i + j + m - lo])


def module_residuals(
    spec: AlgebraSpec,
    module: Rank1Module | GradedModule,
    n_basis: int = 3,
    k_gen: int = 2,
) -> Iterator[tuple[tuple, MPoly]]:
    """``(key, residual)`` of ``x.(y.v) - y.(x.v) - [x_l y].v`` per instance.

    Rank-one modules give one instance per ordered family pair, on the
    index-free templates, keyed ``(F, G)``.  Graded modules give one per
    (family pair, generator indices, basis index) over the window
    ``|i|, |j| <= k_gen``, ``|m| <= n_basis``, keyed ``(F, G, i, j, m)``.
    Family pairs come in family order, then (i, j, m) in order.  A negative
    ``n_basis`` or ``k_gen`` is a ``ValueError``, and a bit sequence that
    does not cover the window the identity reads raises ``WindowTooSmall``,
    each before the first instance.

    The residual for (F_i, G_j) on v_m reads G_j on v_m, F_i on v_(j+m),
    F_i on v_m, G_j on v_(i+m) and, for each bracket target H, H_(i+j) on
    v_m; the bracket templates are index-free.  So the arithmetic runs once
    per distinct (F, G, those action polynomials), matched by value, and is
    reused for every instance that shares them.  For a ``bit_keyed`` module
    (every ``build_graded`` module, and the classifier's two tables) those
    polynomials are fixed by the bits at m, i+m, j+m and i+j+m, so within
    one family pair an instance whose bit pattern (``_bit_pattern``,
    computed once per stream when the stream first reaches the instance)
    was met before takes that residual without
    reading the actions; a pattern met for the first time falls back to the
    match by value.  Other custom modules (``graded_from_tables``) may read
    their indices in any way and keep the match by value alone.  Each
    (family, i, m) action is read once, each variable change of an action
    value is made once, and the bracket heads T_H(-l-m, l) are formed once
    per family pair.  All this reuse ends with
    the stream.
    """
    _refuse_negative(n_basis=n_basis, k_gen=k_gen)
    index_free = isinstance(module, Rank1Module)
    if index_free:

        def act(family: str, _i: int, _m: int) -> MPoly:
            return module.template(family)

        gen_range = basis_range = range(1)
    else:
        if module.bitseq is not None:
            need = window_reach(n_basis, k_gen)
            if module.bitseq.lo > -need or module.bitseq.hi < need:
                raise WindowTooSmall(
                    f"bit sequence must cover [-{need}, {need}] for n_basis={n_basis}, "
                    f"k_gen={k_gen}"
                )
        act = module.action
        gen_range = range(-k_gen, k_gen + 1)
        basis_range = range(-n_basis, n_basis + 1)
    reads: dict[tuple[str, int, int], MPoly] = {}

    def read(family: str, i: int, m: int) -> MPoly:
        key = (family, i, m)
        value = reads.get(key)
        if value is None:
            value = reads[key] = act(family, i, m)
        return value

    pattern = _bit_pattern(module)
    instances = [(i, j, m) for i in gen_range for j in gen_range for m in basis_range]
    # the pattern of each instance, computed when the first family pair
    # reaches it and read by the later ones
    patterns: list[tuple | None] = []
    at = _change_memo()
    computed: dict[tuple, MPoly] = {}
    for fam_f in spec.families:
        for fam_g in spec.families:
            heads = tuple(
                (target, template.substitute(VAR_D, -POLY_L_PLUS_M))
                for target, template in spec.templates(fam_f, fam_g)
            )
            by_pattern: dict[tuple, MPoly] = {}
            for n, (i, j, m) in enumerate(instances):
                if n == len(patterns):
                    patterns.append(pattern(i, j, m))
                bits = patterns[n]
                residual = by_pattern.get(bits)
                if residual is None:
                    inputs = (
                        read(fam_g, j, m),
                        read(fam_f, i, j + m),
                        read(fam_f, i, m),
                        read(fam_g, j, i + m),
                    ) + tuple(read(target, i + j, m) for target, _ in heads)
                    shared = (fam_f, fam_g, inputs)
                    residual = computed.get(shared)
                    if residual is None:
                        residual = two_action_difference(*inputs[:4], at)
                        for (_, head), t_h in zip(heads, inputs[4:]):
                            if not t_h.is_zero():
                                residual = residual - head * at(_at_l_plus_m, t_h)
                        computed[shared] = residual
                    if bits is not None:
                        by_pattern[bits] = residual
                key = (fam_f, fam_g) if index_free else (fam_f, fam_g, i, j, m)
                yield key, residual


def check_module_axioms(
    spec: AlgebraSpec,
    module: Rank1Module | GradedModule,
    n_basis: int = 3,
    k_gen: int = 2,
) -> ModuleReport:
    """Every instance of ``module_residuals``, collected.

    ``checked`` counts the instances and ``residuals`` holds the nonzero
    ones in stream order.  A zero rank-one template residual certifies the
    identity for every index pair and every nonzero scale base (and is
    literal when the scale base is symbolic).
    """
    report = ModuleReport(module_kind=module.kind)
    if isinstance(module, Rank1Module):
        report.notes.append(
            "rank-one residuals are index-free: the scale-base power of every "
            "term of the identity for (F_i, G_j) is c^(i+j)"
        )
    for key, residual in module_residuals(spec, module, n_basis, k_gen):
        report.checked += 1
        if residual:
            report.residuals[key] = residual
    return report


# ---------------------------------------------------------------------------
# relation oracle for graded modules (hand-coded identities)
# ---------------------------------------------------------------------------


def relations_oracle(
    module: GradedModule,
    a: ParamLike,
    b: ParamLike,
    n_basis: int = 3,
    k_gen: int = 2,
) -> ModuleReport:
    """Evaluate the five structure-coefficient relations directly.

    With f, g, h the L/M/Y coefficient tables of a graded module, the
    relations are (all as polynomial identities in d, l, m):

        LM:  g[j,m](d+l, m') f[i,j+m](d, l) - f[i,m](d+m', l) g[j,i+m](d, m')
                 = ((a-1) l - m' + b) g[i+j,m](d, l+m')
        LY:  same shape with h and weight ((a/2) l - m' + b/2)
        YY:  h[j,m](d+l, m') h[i,j+m](d, l) - h[i,m](d+m', l) h[j,i+m](d, m')
                 = (l - m') g[i+j,m](d, l+m')
        MY:  h[j,m](d+l, m') g[i,j+m](d, l) = g[i,m](d+m', l) h[j,i+m](d, m')
        MM:  g[j,m](d+l, m') g[i,j+m](d, l) = g[i,m](d+m', l) g[j,i+m](d, m')

    (``m'`` denotes the second bracket variable.)  This is the deliberate
    second encoding of the module identity, kept as an oracle: it writes the
    relations out by hand, never touches the bracket table and does not call
    ``module_residuals`` or ``two_action_difference``, so it is an
    independent cross-check of the generic axiom checker.  A negative
    ``n_basis`` or ``k_gen`` is a ``ValueError``, as in the stream.

    It reads and counts every (relation, i, j, m) sample.  Each relation is
    a function of the table values it reads: LM and LY read x(j, m),
    y(i, j+m), z(i, m), w(j, i+m) and t(i+j, m); MM and MY read the first
    four; YY reads four h-values and g(i+j, m).  The tables take few
    distinct values, so each relation is computed once per call for each
    distinct tuple of the values it reads, and each of the four variable
    changes below once per call for each distinct table value it meets, by
    the stream's ``_change_memo``.  The four changes are written out here
    and not taken from the stream's, because they are part of the
    independent encoding.
    """
    _refuse_negative(n_basis=n_basis, k_gen=k_gen)
    pa = as_param(a, "a")
    pb = as_param(b, "b")
    half = Fraction(1, 2)

    def at_mu_shift(p: MPoly) -> MPoly:     # p(d+l, m')
        return _as_bracket_var(p, VAR_M).shift(VAR_D, POLY_L)

    def at_mu(p: MPoly) -> MPoly:           # p(d, m')
        return _as_bracket_var(p, VAR_M)

    def at_sum(p: MPoly) -> MPoly:          # p(d, l+m')
        return _as_bracket_var(p, POLY_L_PLUS_M)

    def d_plus_mu(p: MPoly) -> MPoly:       # p(d+m', l)
        return p.shift(VAR_D, POLY_M)

    at = _change_memo()

    def actions(x: MPoly, y: MPoly, z: MPoly, w: MPoly) -> MPoly:
        # x(d+l, m') y(d, l) - z(d+m', l) w(d, m')
        return at(at_mu_shift, x) * y - at(d_plus_mu, z) * at(at_mu, w)

    w_lm = (pa - 1) * POLY_L - POLY_M + pb
    w_ly = pa.scale(half) * POLY_L - POLY_M + pb.scale(half)
    w_yy = POLY_L - POLY_M
    relations: dict[str, Callable[..., MPoly]] = {
        "LM": lambda x, y, z, w, t: actions(x, y, z, w) - w_lm * at(at_sum, t),
        "MM": actions,
        "LY": lambda x, y, z, w, t: actions(x, y, z, w) - w_ly * at(at_sum, t),
        "YY": lambda x, y, z, w, t: actions(x, y, z, w) - w_yy * at(at_sum, t),
        "MY": actions,
    }
    has_y = "Y" in module.families
    act = module.action
    computed: dict[tuple[str, tuple[MPoly, ...]], MPoly] = {}

    report = ModuleReport(module_kind=f"oracle:{module.kind}")
    gen_range = range(-k_gen, k_gen + 1)
    basis_range = range(-n_basis, n_basis + 1)
    for i in gen_range:
        for j in gen_range:
            for m in basis_range:
                f_i_jm, f_im = act("L", i, j + m), act("L", i, m)
                g_jm, g_i_jm = act("M", j, m), act("M", i, j + m)
                g_im, g_j_im, g_ij_m = act("M", i, m), act("M", j, i + m), act("M", i + j, m)
                reads = {
                    "LM": (g_jm, f_i_jm, f_im, g_j_im, g_ij_m),
                    "MM": (g_jm, g_i_jm, g_im, g_j_im),
                }
                if has_y:
                    h_jm, h_i_jm = act("Y", j, m), act("Y", i, j + m)
                    h_im, h_j_im = act("Y", i, m), act("Y", j, i + m)
                    reads["LY"] = (h_jm, f_i_jm, f_im, h_j_im, act("Y", i + j, m))
                    reads["YY"] = (h_jm, h_i_jm, h_im, h_j_im, g_ij_m)
                    reads["MY"] = (h_jm, g_i_jm, g_im, h_j_im)
                for name, values in reads.items():
                    key = (name, values)
                    residual = computed.get(key)
                    if residual is None:
                        residual = computed[key] = relations[name](*values)
                    report.checked += 1
                    if not residual.is_zero():
                        report.residuals[(name, i, j, m)] = residual
    return report


# ---------------------------------------------------------------------------
# reducibility witness
# ---------------------------------------------------------------------------


@dataclass
class WitnessResult:
    """Outcome of the submodule witness decision on a rank-one module."""

    witness: MPoly | None = None
    degree: int | None = None
    trivial_module: bool = False
    all_actions_zero: bool = False
    note: str = ""


def reducibility_witness(module: Rank1Module) -> WitnessResult:
    """The monic q(d) of largest degree with q | q(d+l) * T_F for every
    acting family F, or no witness when no such q of any degree exists.

    Such a q generates a proper conformal submodule ``q(d) C[d] v``.  One
    gcd decides every degree.  Let pi be an irreducible factor of q.  At a
    root r of pi, q(r + l) is a nonzero polynomial in l, so pi does not
    divide q(d + l); hence q | q(d+l) * T_F in Q(i)[d, l] iff q divides
    every l-coefficient of T_F.  So a witness exists iff g, the monic gcd
    over the families F and over k of [l^k] T_F (polynomials in d alone),
    is not constant, and then every divisor of g is a witness; g is
    returned, with ``degree = deg g``.  For ``build_rank1`` templates g is
    d + beta when alpha and the extension scalar are 0, and 1 otherwise
    (the irreducibility criterion for free rank-one modules of S.-J. Cheng
    and V. G. Kac, "Conformal modules", Asian J. Math. 1 (1997)).
    """
    if not module.is_numeric():
        raise ValueError("witness search needs numeric module parameters")
    cval = module.c_value()
    if module.all_actions_zero() or not cval:
        return WitnessResult(
            trivial_module=True,
            all_actions_zero=module.all_actions_zero(),
            note="scale base is zero: only the index-0 generators act; "
            "flagged as trivial, no witness search performed",
        )
    g = _ZERO
    for t in module.templates.values():
        for coeff in t.split_by([VAR_L]).values():
            # Euclid on polynomials in d: g becomes the monic gcd(g, coeff)
            while not coeff.is_zero():
                if coeff.is_constant():
                    return WitnessResult(note="no witness at any degree")
                coeff = coeff.scale(coeff.leading()[1] ** -1)
                g, coeff = coeff, g.divmod_in(coeff, VAR_D)[1]
    for t in module.templates.values():
        (g.shift(VAR_D, POLY_L) * t).divide_exact(g)
    return WitnessResult(witness=g, degree=g.degree_in(VAR_D))


# ---------------------------------------------------------------------------
# module descriptor text format
# ---------------------------------------------------------------------------


#: the ``param`` keys each module kind reads, in its builder's argument order
MODULE_PARAMS = {
    "rank1": ("alpha", "beta", "c", "d"),
    "graded-vab": ("alpha", "beta", "d"),
    "graded-vAb": ("beta", "d"),
}
_PARAM_DEFAULTS: dict[str, ParamLike] = {"alpha": "sym", "beta": "sym", "c": "sym", "d": 0}


def build_module(
    spec: AlgebraSpec,
    kind: str,
    params: Mapping[str, ParamLike],
    bits: BitSeq | None = None,
) -> Rank1Module | GradedModule:
    """The module of ``kind`` (a ``MODULE_PARAMS`` key) over ``spec``.

    ``params`` maps keys the kind reads to values; a missing key takes its
    default (``sym``, or 0 for ``d``).  A ``graded-vAb`` module needs
    ``bits``.
    """
    args = [params.get(key, _PARAM_DEFAULTS[key]) for key in MODULE_PARAMS[kind]]
    if kind == "rank1":
        return build_rank1(spec, *args)
    if kind == "graded-vab":
        return build_graded(spec, "vab", *args)
    if bits is None:
        raise ValueError("a graded-vAb module needs a bitseq")
    return build_graded(spec, "vAb", bits, *args)


def serialize_module(module: Rank1Module | GradedModule) -> str:
    lines: list[str] = []
    if isinstance(module, Rank1Module):
        lines.append("module rank1")
        lines.append("families " + " ".join(module.families))
        for key in MODULE_PARAMS["rank1"]:
            lines.append(f"param {key} : {getattr(module, key)}")
    else:
        if module.kind == "custom":
            raise ValueError("custom graded modules have no text form")
        lines.append(f"module graded-{module.kind}")
        lines.append("families " + " ".join(module.families))
        for key, value in module.params.items():
            lines.append(f"param {key} : {value}")
        if module.bitseq is not None:
            lines.append(f"bitseq {module.bitseq.lo} : {module.bitseq.to_string()}")
    return "\n".join(lines) + "\n"


def parse_module(text: str, spec: AlgebraSpec) -> Rank1Module | GradedModule:
    kind = ""
    families: tuple[str, ...] = ()
    params: dict[str, tuple[MPoly, str]] = {}
    bits: BitSeq | None = None
    kind_line = families_line = bits_line = ""
    for head, rest, line in text_lines(text, ("module", "families", "bitseq")):
        if head == "module":
            kind = rest.strip()
            kind_line = line
        elif head == "families":
            families = tuple(rest.split())
            families_line = line
        elif head == "param":
            key, _, value = rest.partition(":")
            key = key.strip()
            if key in params:
                raise ValueError(f"bad param line: {line!r}: param {key} is given twice")
            params[key] = (line_poly(value, head, line), line)
        elif head == "bitseq":
            lo_txt, _, value = rest.partition(":")
            try:
                bits = BitSeq.from_string(value, int(lo_txt))
            except ValueError as exc:
                raise ValueError(f"bad bitseq line: {line!r}: {exc}") from exc
            bits_line = line
        else:
            raise ValueError(f"unknown directive {head!r} in module text")
    if families and set(families) != set(spec.families):
        raise ValueError(
            f"bad families line: {families_line!r}: module families do not match the "
            f"algebra's {' '.join(spec.families)}"
        )
    readable = MODULE_PARAMS.get(kind)
    if readable is None:
        if not kind_line:
            raise ValueError("module text has no module line")
        raise ValueError(
            f"bad module line: {kind_line!r}: unknown module kind {kind!r}; "
            f"the kinds are {', '.join(MODULE_PARAMS)}"
        )
    for key, (_, line) in params.items():
        if key not in readable:
            raise ValueError(
                f"bad param line: {line!r}: module {kind} has no param {key}; "
                f"it reads {', '.join(readable)}"
            )
    if bits is not None and kind != "graded-vAb":
        raise ValueError(f"bad bitseq line: {bits_line!r}: module {kind} reads no bitseq")
    return build_module(spec, kind, {key: poly for key, (poly, _) in params.items()}, bits)
