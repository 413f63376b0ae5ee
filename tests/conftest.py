from fractions import Fraction

from hypothesis import strategies as st

from confalg.linsolve import reduce_rows
from confalg.poly import GaussianRational, MPoly

VAR_NAMES = ("d", "l", "m", "a", "b")


@st.composite
def scalars(draw, allow_imaginary: bool = True):
    re = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 5)))
    im = Fraction(0)
    if allow_imaginary and draw(st.booleans()):
        im = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return GaussianRational(re, im)


@st.composite
def monomials(draw):
    names = draw(st.lists(st.sampled_from(VAR_NAMES), unique=True, max_size=3))
    return {name: draw(st.integers(1, 3)) for name in names}


@st.composite
def polys(draw, allow_imaginary: bool = True):
    acc = MPoly.zero()
    for _ in range(draw(st.integers(0, 4))):
        mono = draw(monomials())
        term = MPoly.const(draw(scalars(allow_imaginary)))
        for name, e in mono.items():
            term = term * MPoly.var(name, e)
        acc = acc + term
    return acc


def literal_module_residual(spec, act, fam_f, fam_g, i, j, m):
    """``F_i.(G_j.v_m) - G_j.(F_i.v_m) - [F_i _l G_j].v_m``, formed afresh
    for one instance with no memo: the reference ``module_residuals`` must
    match.  ``act(family, i, m)`` is the action polynomial of F_i on v_m."""
    d, l, mu = MPoly.var("d"), MPoly.var("l"), MPoly.var("m")
    residual = act(fam_g, j, m).substitute("l", mu).shift("d", l) * act(
        fam_f, i, j + m
    ) - act(fam_f, i, m).shift("d", mu) * act(fam_g, j, i + m).substitute("l", mu)
    for target, template in spec.templates(fam_f, fam_g):
        residual = residual - template.substitute("d", -(l + mu)) * act(
            target, i + j, m
        ).substitute("l", l + mu)
    return residual


def weight_equation_kernel(A, B, degree_bound):
    """Kernel of ``(A l - m + B) p(l+m) + m p(m) = 0`` for deg p <= bound,
    solved as a linear system: the oracle that the classifiers' weight
    certificate (``classify._constant_weight_kernel``) must match.

    Returns a basis of solutions as polynomials in ``l``.  The column of
    ``l^q`` is ``w (l+m)^q + m^(q+1)``.
    """
    l, m = MPoly.var("l"), MPoly.var("m")
    w = l.scale(A) - m + MPoly.const(B)
    cols = degree_bound + 1
    rows = {}
    power = MPoly.const(1)                  # (l+m)^q
    for q in range(cols):
        if q:
            power = power * (l + m)
        contribution = w * power + MPoly.var("m", q + 1)
        for mono, coeff in contribution.terms.items():
            rows.setdefault(mono, {})[q] = coeff
    ech = reduce_rows(list(rows.values()), None, cols)
    basis = []
    for vec in ech.kernel_basis():
        p = MPoly.zero()
        for q, coeff in enumerate(vec):
            if coeff:
                p = p + MPoly.var("l", q).scale(coeff)
        basis.append(p)
    return basis
