"""Shared strategies and the test oracles: hand-built encodings of
identities that ``src/`` encodes once, kept only to check that encoding.

- ``literal_module_residual``: the module identity of one instance, formed
  afresh with no memo.
- ``weight_equation_kernel``: the weight equation solved as a linear
  system, against the classifiers' weight certificate.
- ``jacobi_three_brackets``: the Jacobi identity written out as its three
  brackets.  ``lca.check_jacobi`` reads it as the Leibniz residual of
  ad(a_0), and this independent encoding is its oracle.
- the hand linearization of the Leibniz rule (``contribution_table``,
  ``pair_rows``, ``leibniz_system``, ``hand_blocks``): the rows of the
  graded Leibniz system written term by term from the three terms of the
  residual.  ``derivations._linearization`` builds its rows from the
  literal ``leibniz_residual`` instead, and this independent encoding is
  the oracle of that build and of the block solve.
"""

import functools
from collections import Counter
from fractions import Fraction
from typing import Iterable

from hypothesis import strategies as st

from confalg.derivations import (
    _Coords, _degree_monos, _index_slots, _make_coords, _symbol_templates,
)
from confalg.lca import (
    POLY_L, POLY_L_PLUS_M, POLY_M, VAR_D, VAR_L, VAR_M, AlgebraSpec, GenPoly, conformal_bracket,
)
from confalg.linsolve import SparseRow, reduce_rows
from confalg.poly import GaussianRational, Mono, MPoly

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


def jacobi_three_brackets(spec, fam_a, fam_b, fam_c):
    """``[a_l [b_m c]] - [[a_l b]_{l+m} c] - [b_m [a_l c]]`` at index 0,
    formed from three nested brackets: the independent encoding of the
    Jacobi identity that ``lca.check_jacobi``, the Leibniz residual of
    ad(a_0) on (b_0, c_0), must match."""
    a = GenPoly.unit(fam_a, 0)
    b = GenPoly.unit(fam_b, 0)
    c = GenPoly.unit(fam_c, 0)
    t1 = conformal_bracket(spec, a, conformal_bracket(spec, b, c, VAR_M), VAR_L)
    t2 = conformal_bracket(spec, conformal_bracket(spec, a, b, VAR_L), c, POLY_L_PLUS_M)
    t3 = conformal_bracket(spec, b, conformal_bracket(spec, a, c, VAR_L), VAR_M)
    return t1 - t2 - t3


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


# ---------------------------------------------------------------------------
# the hand linearization of the Leibniz rule
# ---------------------------------------------------------------------------

#: what one unknown contributes to the rows of one pair: its index (0 for
#: i + j, 1 for i, 2 for j), its position in that index's block, and its
#: coefficients keyed by row (target family, monomial in d, l, m), signed
_Contribution = tuple[int, int, tuple[tuple[tuple[str, Mono], GaussianRational], ...]]


def _times_l(mono: Mono, q: int) -> Mono:
    """``mono * l^q``: d is the one variable that sorts before l."""
    k = 1 if mono and mono[0][0] == VAR_D else 0
    if k < len(mono) and mono[k][0] == VAR_L:
        return mono[:k] + ((VAR_L, mono[k][1] + q),) + mono[k + 1:]
    return mono[:k] + ((VAR_L, q),) + mono[k:]


def _family_pair_contributions(
    spec: AlgebraSpec,
    fam_x: str,
    fam_y: str,
    powers: tuple[tuple[MPoly, ...], tuple[MPoly, ...], tuple[MPoly, ...]],
    local: dict,
    shared: dict[tuple, list[list[tuple]]],
) -> list[_Contribution]:
    """Index-free linearization of the Leibniz residual of (x_i, y_j).

    The residual is linear in the unknown image coefficients.  Bracket
    templates do not depend on generator indices, so every polynomial here
    depends on the family pair and the bound only: the indices i, j enter
    through the index block each unknown sits in (1 for x_i, 2 for y_j, 0
    for the image of x_i _m y_j at i + j), and within it the unknown's
    column is its position in ``local``.  The unknown of d^p l^q enters its
    term as power_p * l^q * T, T the term's instantiated template (sign
    included) and ``powers`` holding d^p, (-(l+m))^p and (d+m)^p for the
    three terms.  So each T is multiplied by each power_p once, and the
    factor l^q only raises the l exponents of that product.

    The terms of [(D x)_{l+m} y] read only the templates of (G, y), those
    of [x _m (D y)] only the templates of (x, G); ``shared`` keeps them per
    template pair for the other family pairs of one table build.
    """
    monos = _degree_monos(len(powers[0]) - 1)
    out: list[_Contribution] = []

    def raised(template: MPoly, power: tuple[MPoly, ...]) -> list[tuple]:
        """The terms of power_p * l^q * template, for each (p, q) in order."""
        products = [tuple((factor * template).terms.items()) for factor in power]
        return [
            tuple((_times_l(mono, q), c) for mono, c in products[p]) if q else products[p]
            for p, q in monos
        ]

    def keyed(target: str, terms: tuple) -> tuple:
        return tuple(((target, mono), c) for mono, c in terms)

    def side(which: int, pair: tuple[str, str], at: MPoly) -> list[list[tuple]]:
        """Per template T of ``pair``, the keyed terms of -T at l -> ``at``,
        raised by term ``which``'s powers, per monomial."""
        key = (which, pair)
        if key not in shared:
            shared[key] = [
                [keyed(tgt_h, t) for t in raised(-template.substitute(VAR_L, at), powers[which])]
                for tgt_h, template in spec.table.get(pair) or ()
            ]
        return shared[key]

    # D([x _m y]): bracket templates at m, images shifted by l
    for tgt_f, template in spec.templates(fam_x, fam_y):
        terms = raised(template.substitute(VAR_L, POLY_M).shift(VAR_D, POLY_L), powers[0])
        for tgt_g in spec.families:
            for mono, t in zip(monos, terms):
                out.append((0, local[(tgt_f, tgt_g, mono)], keyed(tgt_g, t)))
    # [(D x)_{l+m} y]: first-argument coefficients evaluated at d -> -(l+m)
    for fam_g in spec.families:
        for terms in side(1, (fam_g, fam_y), POLY_L_PLUS_M):
            for mono, t in zip(monos, terms):
                out.append((1, local[(fam_x, fam_g, mono)], t))
    # [x _m (D y)]: second-argument coefficients shifted d -> d + m
    for fam_g in spec.families:
        for terms in side(2, (fam_x, fam_g), POLY_M):
            for mono, t in zip(monos, terms):
                out.append((2, local[(fam_y, fam_g, mono)], t))
    return out


def pair_rows(
    coords: _Coords, contributions: list[_Contribution], i: int, j: int
) -> dict[tuple[str, Mono], SparseRow]:
    """Rows of the Leibniz residual of (x_i, y_j), keyed by the residual's
    (target family, monomial in d, l, m): each contribution's position
    plus the first column of i, j or i + j.  An index past the window lands
    on the next block (``hand_blocks`` reads index 1 of window 0 so).

    Contributions are added in their build order, so unknowns that share a
    column (e.g. x_i and the bracket image when j = 0) sum and cancel in a
    fixed order; rows that cancel to nothing are dropped.
    """
    n, w = coords.n, coords.src_window
    offsets = ((i + j + w) * n, (i + w) * n, (j + w) * n)
    buckets: dict[tuple[str, Mono], SparseRow] = {}
    for which, position, terms in contributions:
        col = offsets[which] + position
        for key, value in terms:
            row = buckets.setdefault(key, {})
            acc = row.get(col)
            s = value if acc is None else acc + value
            if s:
                row[col] = s
            elif acc is not None:
                del row[col]
    return {key: row for key, row in buckets.items() if row}


@functools.cache
def _powers(bound: int) -> tuple[tuple[MPoly, ...], tuple[MPoly, ...], tuple[MPoly, ...]]:
    """d^p, (-(l+m))^p and (d+m)^p for p <= ``bound``: constants of the
    bound alone, built once per bound."""
    return (
        tuple(MPoly.var(VAR_D, p) for p in range(bound + 1)),
        tuple((-POLY_L_PLUS_M) ** p for p in range(bound + 1)),
        tuple((MPoly.var(VAR_D) + POLY_M) ** p for p in range(bound + 1)),
    )


def contribution_table(
    spec: AlgebraSpec, bound: int, family_pairs: Iterable[tuple[str, str]]
) -> dict[tuple[str, str], list[_Contribution]]:
    """The contributions of each family pair, built once per pair.

    The terms of [(D x)_{l+m} y] and [x _m (D y)] are built once per
    template pair and shared by every family pair of this table that reads
    them (in ``hand_blocks`` every pair is (L, y), so the (L, G) terms are
    built once, not once per y); they are dropped with the table build.
    The powers are ``_powers(bound)``.
    """
    powers = _powers(bound)
    local = _index_slots(spec.families, bound)
    shared: dict[tuple, list[list[tuple]]] = {}
    table: dict[tuple[str, str], list[_Contribution]] = {}
    for pair in family_pairs:
        if pair not in table:
            table[pair] = _family_pair_contributions(spec, *pair, powers, local, shared)
    return table


def leibniz_system(
    spec: AlgebraSpec, degree: int, bound: int, window: int, pairs: str
) -> tuple[_Coords, list[SparseRow]]:
    """Column layout and rows of the graded Leibniz system.

    Rows are built once per family pair and relabelled per index pair; the
    contributions are dropped when the system is returned.  The ``lzero``
    system eliminated whole is the oracle for the block solve
    (``derivations._lzero_kernel``), the ``all`` system an independent
    cross-check.
    """
    if pairs == "lzero":
        src_window = window
        pair_list = [("L", 0, fam, j) for fam in spec.families
                     for j in range(-window, window + 1)]
    elif pairs == "all":
        src_window = 2 * window
        pair_list = [
            (fx, i, fy, j)
            for fx in spec.families
            for fy in spec.families
            for i in range(-window, window + 1)
            for j in range(-window, window + 1)
        ]
    else:
        raise ValueError("pairs must be 'lzero' or 'all'")
    coords = _make_coords(spec, degree, bound, src_window)
    table = contribution_table(spec, bound, ((fx, fy) for fx, _, fy, _ in pair_list))
    rows: list[SparseRow] = []
    for fam_x, i, fam_y, j in pair_list:
        rows.extend(pair_rows(coords, table[(fam_x, fam_y)], i, j).values())
    return coords, rows

def ncols(coords: _Coords) -> int:
    """The number of columns of ``coords``' layout over its whole source window."""
    return (2 * coords.src_window + 1) * coords.n


def hand_blocks(families: tuple[str, ...], layout, bound: int) -> tuple[Counter, Counter]:
    """Block 0 and B of the ``derivations._linearization`` entry of this
    key, from the hand contributions on the same symbol templates, as
    multisets of rows, each row a frozenset of (column, linear form), each
    form the sorted (template symbol, factor) pairs.

    Block 0 is the rows of the pairs (L_0, y_0), where the index-0 and
    index-j columns already coincide, so ``pair_rows`` sums them; B is the
    index-1 part of the rows of (L_0, y_1), moved onto index 0.
    """
    spec, symbols = _symbol_templates(families, layout)
    coords = _make_coords(spec, 0, bound, 0)
    table = contribution_table(spec, bound, [("L", fam) for fam in families])

    def block(j: int) -> Counter:
        start = j * coords.n
        rows: dict[tuple, dict[int, dict[int, GaussianRational]]] = {}
        for fam in families:
            for (target, mono), row in pair_rows(coords, table[("L", fam)], 0, j).items():
                # every term holds one symbol, which sorts after d, l and m
                entries = rows.setdefault((fam, target, mono[:-1]), {})
                for col, value in row.items():
                    if col >= start:
                        entries.setdefault(col - start, {})[symbols[mono[-1][0]]] = value
        return Counter(frozenset((col, tuple(sorted(form.items()))) for col, form in row.items())
                       for row in rows.values() if row)

    return block(0), block(1)
