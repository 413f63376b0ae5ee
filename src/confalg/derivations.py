"""Conformal derivations: Leibniz checker, inner derivations, the
M-valued non-inner family, a degree-bounded graded-derivation solver, and
decomposition into inner plus scalar non-inner parts.

A derivation is stored by its images on a finite generator window.  The
Leibniz residual of a pair (x_i, y_j),

    D([x_i _m' y_j]) - [(D x_i) _{l+m'} y_j] - [x_i _m' (D y_j)],

is a generator-indexed polynomial in (d, l, m); identically zero residuals
certify the rule for the pair.  The compatibility D(d a) = (d + l) D(a)
holds structurally because images extend C[d]-linearly with the d -> d + l
shift.  The rule and ``ad`` live in ``lca``, whose Jacobi check reads them.

The residual of (x_i, y_j) reads the images of x_i, of y_j and of each
bracket target z_{i+j} of the family pair; the bracket templates are
index-free.  So it is the residual at (x_0, y_0) of those images
relabelled to index 0, relabelled by i + j, and ``check_derivation``
computes it once per distinct (family pair, relabelled images) within a
call and reuses it for every pair that shares them.  When each family's
images are one index-0 pattern relabelled (``ad`` and the M-valued family
are), every family pair has one residual, and the verdict holds at every
index pair (``DerivationReport.every_index``).

The graded solver works at one grading degree c: image of X_i supported at
index i + c with polynomial coefficients of bounded total degree.  Its
equations are the Leibniz residual coefficients for the pairs (L_0, y_j),
which the uniform structure of the bracket table makes exhaustive: the
classification argument subtracts inner derivations and the M-valued family
using those pairs alone.  The tests keep the whole (L_0, y_j) system and
the all-pairs system, written out by a hand linearization of the three
terms of the residual, as the oracles of the solve.

Bracket templates do not depend on generator indices, so a uniform
derivation is one index-0 pattern relabelled to every index (``_uniform``
builds ``d_vec``, the inner vectors and the solved basis so), and the
graded system has one column layout, computed by index arithmetic: the
unknowns of source index i are the n columns from (i + w) * n on, w the
source window, in the same (source family, target family, monomial) order
at every index.  Nothing of the grading degree enters the rows.  The inner
vectors are index-0 patterns too: [d^k X_c _l F_i] is [d^k X_0 _l F_0]
with every index raised by c + i, so the columns of ad(d^k X_c) at index 0
do not depend on the grading degree c, and one bracket per (X, k, F) gives
them all; ``ad`` stays the literal evaluator the tests hold them to.

The residual is linear in the image coefficients and in the template
coefficients, so the solver's rows and the patterns are built once per
(families, the table's (pair, target) layout with each template's total
degree in d and l, bound) and kept for the life of the process
(``_linearization``; the patterns alone, which ``decompose`` reads, in
``_inner_patterns``, whose entry the solver's entry extends).  The rows
are read off ``leibniz_residual`` itself, the one encoding of the rule:
it runs on templates with one coefficient symbol per monomial d^u l^v of
that degree and on a derivation with one symbol per image coefficient,
and the factor of each template symbol in the coefficient of each image
symbol is one term of a row entry's linear form.  An entry is the id of
its linear form in the template symbols, which name places in the layout,
so the cache holds no input value: a solve looks the entry up once and
evaluates each form once at its own coefficients, for both blocks and the
patterns, and those values end with the call.

So the (L_0, y_j) system is answered from its index-0 data.  The pairs
with j != 0 are one block, relabelled: the index-0 L columns (A) and the
index-j columns (B).  The pairs with j = 0, block 0, are the same rows with
the index-j columns folded onto index 0, so a solution x_0 of block 0,
copied to index j, solves block j (the conditions "A x_0 in im B" hold
already).  The rows of (L_0, y_1) are built once, on the window-0 layout,
whose index-1 columns are its next n, and two eliminations over the
index-0 columns give ker(block 0) and ker B; an algebra restricted to
index 0 has no index 1 and so no B, and the fold still gives its block 0.
Before each elimination, the rows that hold one entry, many in either
block, are made unit rows and their columns cleared from the other rows
(``linsolve.pin_single_entry_rows``): the row space is the same, so the
reduced row echelon form is too, on far fewer entries.  For a window w the
kernel has dimension dim ker(block 0) + 2w dim ker B; its basis is each
block-0 kernel vector relabelled to every index and each ker-B vector
placed at each j != 0.  Every inner vector is one index-0 pattern copied
to every index, and restriction to index 0 is injective on such copies and
zero on the ker-B placements, so the inner rank is read on the index-0
patterns.  When ker B = 0 the answer does not depend on the window, and
the solve certifies it for every window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from .lca import (
    VAR_D,
    VAR_L,
    AlgebraSpec,
    DegreeBoundExceeded,
    DerivationSpec,
    Generator,
    GenPoly,
    WindowTooSmall,
    _refuse_negative,
    _refuse_off_index0,
    ad,
    apply_derivation,
    conformal_bracket,
    leibniz_residual,
    line_poly,
    text_lines,
    weight_of,
)
from .linsolve import SparseRow, pin_single_entry_rows, reduce_rows
from .poly import ZERO, GaussianRational, Inconsistent, Mono, MPoly


class NotDecomposable(ValueError):
    """A derivation that does not split as inner + scalar non-inner part."""


class StrayVariable(ValueError):
    """An image term in a variable other than d and l, which has no column."""


class InnerNotInKernel(ValueError):
    """An inner derivation that the solved graded Leibniz kernel lacks: the
    bracket table breaks skew-symmetry or the Jacobi identity, and a Jacobi
    failure is this Leibniz failure of ad (``lca.check_jacobi``)."""


#: finitely supported scalar sequence: position -> coefficient
SeqC = Mapping[int, GaussianRational]


def _refuse_symbolic(spec: AlgebraSpec, what: str) -> None:
    """Refuse a solve on an algebra with symbolic parameters."""
    if spec.parameters:
        raise ValueError(f"{what} needs numeric algebra parameters; {spec.name} has "
                         f"symbolic {', '.join(spec.parameters)}")


def _refuse_unknown_families(spec: AlgebraSpec, deriv: DerivationSpec) -> None:
    """Raise ``UnknownFamily`` for an image source or target family that the
    algebra lacks; no check reads such an image."""
    for (fam, _), image in deriv.images.items():
        spec.check_family(fam)
        for gen in image.terms:
            spec.check_family(gen.family)


def d_vec(spec: AlgebraSpec, seq: SeqC, window: int = 3) -> DerivationSpec:
    """The derivation L_i -> sum_c a_c M_{i+c}, zero on the other families."""
    if "M" not in spec.families:
        raise ValueError("the M-valued family needs an M family")
    _refuse_negative(window=window)
    entries = {c: GaussianRational.of(v) for c, v in seq.items() if GaussianRational.of(v)}
    degree = next(iter(entries)) if len(entries) == 1 else None
    _refuse_off_index0(spec, "the M-valued family", window, max(map(abs, entries), default=0))
    at0 = GenPoly({Generator("M", c): MPoly.const(v) for c, v in entries.items()})
    return _uniform(spec, {"L": at0}, window, degree)


def _relabel(x: GenPoly, shift: int) -> GenPoly:
    """``x`` with every generator index raised by ``shift``."""
    if not shift or x.is_zero():
        return x
    return GenPoly({Generator(gen.family, gen.index + shift): poly
                    for gen, poly in x.terms.items()})


def _uniform(spec: AlgebraSpec, pattern: Mapping[str, GenPoly], window: int,
             degree: int | None, indices: Iterable[int] | None = None) -> DerivationSpec:
    """The derivation F_i -> ``pattern[F]`` relabelled by i, for every index
    i of the window (or each of ``indices``); families with no or a zero
    pattern map to 0."""
    indices = range(-window, window + 1) if indices is None else indices
    out = DerivationSpec(families=spec.families, window=window, degree=degree)
    for fam, at0 in pattern.items():
        if not at0.is_zero():
            for i in indices:
                out.images[(fam, i)] = _relabel(at0, i)
    return out


@dataclass
class DerivationReport:
    """Leibniz residuals over a generator window."""

    algebra: str
    window: int
    checked: int = 0
    residuals: dict = field(default_factory=dict)
    #: family -> number of distinct index-0 patterns of its images
    patterns: dict[str, int] = field(default_factory=dict)

    @property
    def all_zero(self) -> bool:
        return not self.residuals

    @property
    def every_index(self) -> bool:
        """Each family's images are one pattern relabelled, so the verdict
        holds at every index pair of their uniform extension."""
        return bool(self.patterns) and all(n == 1 for n in self.patterns.values())


def check_derivation(
    spec: AlgebraSpec, deriv: DerivationSpec, window: int | None = None
) -> DerivationReport:
    """Leibniz residuals for every pair whose data stays inside the window.

    The pairs are (x_i, y_j) with |i|, |j| <= ``window`` (default: the
    derivation's window) and |i + j| <= ``deriv.window``, with residual keys
    ``(x, i, y, j)``.  ``checked`` counts pairs, but ``leibniz_residual``
    runs once per distinct ``(x, y, D(x_i), D(y_j), D(z_{i+j}) for each
    bracket target z of (x, y))``, each image relabelled to index 0: the
    residual reads nothing else (those images and the index-free bracket
    templates), and it is the residual at (x_0, y_0) of the relabelled
    images, relabelled by i + j.  The images are matched by value, and the
    reuse ends with the call.

    ``patterns`` counts the distinct index-0 patterns of each family's
    images on the derivation's window.  When every family has one,
    ``every_index`` holds: each family pair has one residual, relabelled,
    so the verdict holds at every index pair of the uniform extension
    D(F_k) = (pattern of F) relabelled by k.
    """
    w = deriv.window if window is None else window
    _refuse_negative(window=w)
    if w > deriv.window:
        raise WindowTooSmall(
            f"derivation images cover |index| <= {deriv.window}, asked for {w}"
        )
    _refuse_off_index0(spec, "the Leibniz check", w, deriv.degree or 0)
    _refuse_unknown_families(spec, deriv)
    report = DerivationReport(algebra=spec.name, window=w)
    pattern_names: dict[GenPoly, int] = {}
    names: dict[tuple[str, int], int] = {}

    def name(family: str, index: int) -> int:
        """The small integer naming the image of family_index at index 0."""
        key = (family, index)
        if key not in names:
            at0 = _relabel(deriv.image(family, index), -index)
            names[key] = pattern_names.setdefault(at0, len(pattern_names))
        return names[key]

    for fam in spec.families:
        report.patterns[fam] = len(
            {name(fam, k) for k in range(-deriv.window, deriv.window + 1)}
        )
    computed: dict[tuple, GenPoly] = {}
    for fam_x in spec.families:
        for fam_y in spec.families:
            targets = [tgt for tgt, _ in spec.templates(fam_x, fam_y)]
            for i in range(-w, w + 1):
                for j in range(-w, w + 1):
                    k = i + j
                    if abs(k) > deriv.window:
                        continue
                    shared = (fam_x, fam_y, name(fam_x, i), name(fam_y, j),
                              tuple(name(tgt, k) for tgt in targets))
                    at0 = computed.get(shared)
                    if at0 is None:
                        residual = leibniz_residual(spec, deriv, fam_x, i, fam_y, j)
                        computed[shared] = _relabel(residual, -k)
                    else:
                        residual = _relabel(at0, k)
                    report.checked += 1
                    if not residual.is_zero():
                        report.residuals[(fam_x, i, fam_y, j)] = residual
    return report


# ---------------------------------------------------------------------------
# graded-derivation solver
# ---------------------------------------------------------------------------


def _degree_monos(bound: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(bound + 1) for q in range(bound + 1 - p)]


#: an unknown of one source index: (source family, target family, (p, q))
_Slot = tuple[str, str, tuple[int, int]]


def _index_slots(families: tuple[str, ...], bound: int) -> dict[_Slot, int]:
    """Position of each (source family, target family, monomial) unknown in
    the block of columns of one source index."""
    return {slot: k for k, slot in enumerate(product(families, families, _degree_monos(bound)))}


@dataclass
class _Coords:
    """Column layout of the graded system over a source window.

    The unknowns of source index i are the n columns from (i + src_window) * n
    on, in the same (source family, target family, monomial) order at every
    index (``local``).  So an index-0 pattern sits at index i by adding i * n
    to its columns.
    """

    spec: AlgebraSpec
    src_window: int
    degree: int
    bound: int
    local: dict[_Slot, int]

    @property
    def n(self) -> int:
        """Number of unknowns per source index."""
        return len(self.local)

    def vector_of(self, deriv: DerivationSpec) -> SparseRow:
        vec: SparseRow = {}
        for (fam, i), image in deriv.images.items():
            if abs(i) > self.src_window:
                continue
            base = (i + self.src_window) * self.n
            for gen, poly in image.terms.items():
                if gen.index != i + self.degree:
                    raise ValueError("derivation is not homogeneous of this degree")
                for mono, coeff in poly.terms.items():
                    exps = dict(mono)
                    slot = (fam, gen.family, (exps.pop(VAR_D, 0), exps.pop(VAR_L, 0)))
                    if exps:
                        raise StrayVariable(
                            f"image of {fam}[{i}] has a term in "
                            f"{', '.join(exps)} besides {VAR_D} and {VAR_L}"
                        )
                    if slot not in self.local:
                        raise DegreeBoundExceeded(
                            f"image of {fam}[{i}] uses monomial {dict(mono)} beyond "
                            f"degree {self.bound}"
                        )
                    vec[base + self.local[slot]] = coeff
        return vec

    def derivation_of(self, vec: SparseRow) -> DerivationSpec:
        """The derivation with coordinates ``vec`` (which holds no zeros)."""
        slots = list(self.local)
        images: dict[tuple[str, int], dict[Generator, dict]] = {}
        for col in sorted(vec):
            block, k = divmod(col, self.n)
            i = block - self.src_window
            fam, tgt, (p, q) = slots[k]
            mono = tuple((name, e) for name, e in ((VAR_D, p), (VAR_L, q)) if e)
            slot = images.setdefault((fam, i), {})
            slot.setdefault(Generator(tgt, i + self.degree), {})[mono] = vec[col]
        out = DerivationSpec(
            families=self.spec.families, window=self.src_window, degree=self.degree
        )
        for key, terms in images.items():
            out.images[key] = GenPoly({gen: MPoly._new(poly) for gen, poly in terms.items()})
        return out


def _make_coords(
    spec: AlgebraSpec, degree: int, bound: int, src_window: int
) -> _Coords:
    return _Coords(spec=spec, src_window=src_window, degree=degree, bound=bound,
                   local=_index_slots(spec.families, bound))


#: a linear form in the template coefficients: (coefficient, factor) pairs,
#: each coefficient named by its position in ``_template_layout``'s list
_Form = tuple[tuple[int, GaussianRational], ...]
#: a row of a linearized block: (column, id of the entry's form) pairs
_FormRow = tuple[tuple[int, int], ...]
#: per family pair (sorted), the target and the template's total degree in
#: d and l of each of its bracket entries
_Layout = tuple[tuple[tuple[str, str], tuple[tuple[str, int], ...]], ...]


def _template_layout(spec: AlgebraSpec) -> tuple[_Layout, list[GaussianRational]]:
    """The layout of the bracket table and its template coefficients.

    The coefficients come per family pair, in sorted order, per bracket
    entry, per monomial d^u l^v with u + v at most the template's degree, in
    ``_degree_monos`` order; those the template lacks are 0.
    """
    layout = []
    coefficients: list[GaussianRational] = []
    for pair in sorted(spec.table):
        entries = []
        for target, template in spec.table[pair]:
            by_mono = {}
            for mono, coeff in template.terms.items():
                exps = dict(mono)
                by_mono[exps.pop(VAR_D, 0), exps.pop(VAR_L, 0)] = coeff
                if exps:
                    raise ValueError(
                        f"the template of {pair[0]}, {pair[1]} -> {target} has a term in "
                        f"{', '.join(exps)} besides {VAR_D} and {VAR_L}"
                    )
            degree = template.degree()
            entries.append((target, degree))
            coefficients.extend(by_mono.get(uv, ZERO) for uv in _degree_monos(degree))
        layout.append((pair, tuple(entries)))
    return tuple(layout), coefficients


def _form_id(form: Mapping[int, GaussianRational], forms: dict[_Form, int]) -> int | None:
    """The id in ``forms`` (extended as needed) of ``form`` (coefficient ->
    factor); None for the zero form."""
    key = tuple(sorted((k, v) for k, v in form.items() if v))
    return forms.setdefault(key, len(forms)) if key else None


def _interned(row: Mapping[int, Mapping[int, GaussianRational]],
              forms: dict[_Form, int]) -> _FormRow:
    """``row`` (column -> form) with each nonzero form replaced by its id."""
    ids = ((col, _form_id(form, forms)) for col, form in row.items())
    return tuple((col, f) for col, f in ids if f is not None)


def _symbol_templates(families: tuple[str, ...],
                      layout: _Layout) -> tuple[AlgebraSpec, dict[str, int]]:
    """A table of ``layout`` whose templates have one coefficient symbol per
    monomial d^u l^v with u + v at most the template's degree, and the
    position of each symbol in ``_template_layout``'s coefficient list."""
    symbols: dict[str, int] = {}
    table = {}
    for pair, entries in layout:
        templates = []
        for target, degree in entries:
            terms = {}
            for u, v in _degree_monos(degree):
                name = f"t{len(symbols)}"
                symbols[name] = len(symbols)
                terms[((VAR_D, u), (VAR_L, v), (name, 1))] = 1
            templates.append((target, MPoly(terms)))
        table[pair] = tuple(templates)
    return AlgebraSpec("templates", families, table), symbols


class _Linearization(NamedTuple):
    """One ``_linearization`` or ``_inner_patterns`` entry (the latter with
    no block rows); every entry of a row or pattern is a form id."""

    #: block 0 and B of ``_lzero_blocks``, on the n index-0 columns
    block_0: tuple[_FormRow, ...]
    block_b: tuple[_FormRow, ...]
    #: the index-0 pattern of ad(d^k X_c) per (X, k), k < bound, X over the
    #: families, in ``inner_window_vectors`` order, on the n index-0 columns
    patterns: tuple[_FormRow, ...]
    #: pattern entries past the bound: (source family, monomial in d and l,
    #: form id), in the order the patterns meet them
    beyond: tuple[tuple[str, Mono, int], ...]
    forms: tuple[_Form, ...]


@functools.cache
def _inner_patterns(families: tuple[str, ...], layout: _Layout, bound: int) -> _Linearization:
    """The index-0 inner patterns for every table of this layout, an entry
    with no block rows, from one bracket [d^k X_0 _l F_0] per (X, k, F) on
    the symbol templates; ``decompose`` reads it alone.

    A pattern entry's column is its (source F, target, monomial) slot, which
    no index reads, so the patterns are the same at every grading degree.
    An entry past the bound has no column; it is kept in ``beyond`` for
    ``_index0_patterns`` to refuse when it evaluates nonzero.
    """
    spec, symbols = _symbol_templates(families, layout)
    local = _make_coords(spec, 0, bound, 0).local
    forms: dict[_Form, int] = {}
    patterns: list[_FormRow] = []
    beyond: dict[tuple[int, str, str, Mono], dict[int, GaussianRational]] = {}
    for fam in families:
        for k in range(bound):
            x = GenPoly.unit(fam, 0, MPoly.var(VAR_D, k))
            pattern: dict[int, dict[int, GaussianRational]] = {}
            for src in families:
                image = conformal_bracket(spec, x, GenPoly.unit(src, 0), VAR_L)
                for gen, poly in image.terms.items():
                    for mono, value in poly.terms.items():
                        # one symbol per term, after d and l
                        exps = dict(mono[:-1])
                        slot = (src, gen.family, (exps.get(VAR_D, 0), exps.get(VAR_L, 0)))
                        if slot in local:
                            form = pattern.setdefault(local[slot], {})
                        else:
                            key = (len(patterns), src, gen.family, mono[:-1])
                            form = beyond.setdefault(key, {})
                        form[symbols[mono[-1][0]]] = value
            patterns.append(_interned(pattern, forms))
    # a term's coefficient is nonzero, so no pattern form is the zero form
    past = tuple((src, mono, _form_id(form, forms)) for (_, src, _, mono), form in beyond.items())
    return _Linearization((), (), tuple(patterns), past, tuple(forms))


def _generic_derivation(families: tuple[str, ...],
                        bound: int) -> tuple[DerivationSpec, dict[str, int]]:
    """The degree-0 derivation on the window-0 layout plus index 1 whose
    image coefficient in each column is a symbol of its own, and the column
    of each symbol: column k of index i (0 or 1) is i * n + k, n the
    unknowns per index, and its symbol ``u<column>`` sorts after every
    template symbol."""
    local = _index_slots(families, bound)
    columns: dict[str, int] = {}
    images: dict[tuple[str, int], dict[Generator, dict]] = {}
    for index in (0, 1):
        for (src, tgt, (p, q)), k in local.items():
            col = index * len(local) + k
            columns[f"u{col}"] = col
            terms = images.setdefault((src, index), {}).setdefault(Generator(tgt, index), {})
            terms[((VAR_D, p), (VAR_L, q), (f"u{col}", 1))] = 1
    deriv = DerivationSpec(families=families, window=1, degree=0)
    for key, image in images.items():
        deriv.images[key] = GenPoly({gen: MPoly(terms) for gen, terms in image.items()})
    return deriv, columns


@functools.cache
def _linearization(families: tuple[str, ...], layout: _Layout, bound: int) -> _Linearization:
    """Block 0, B and the inner patterns for every table of this layout.

    The rows are the coefficients of ``leibniz_residual`` of the pairs
    (L_0, y_1), y over the families, on the symbol templates
    (``_symbol_templates``) and the generic derivation
    (``_generic_derivation``).  The residual is linear in each: a term holds
    one template symbol and one column symbol, after d, l and m.  So a term
    is the factor of its template symbol in the entry of its column symbol,
    in the row of its (target family, monomial in d, l, m), and each entry
    is kept as the id of its linear form in the template symbols.  A symbol
    names a place in the layout, never a value, so the entry holds no
    input.  Rows, forms and the tuples are immutable; block 0 is already
    folded, and rows whose forms all cancel are dropped.  The entry extends
    the ``_inner_patterns`` entry of its key, whose forms come first, so one
    evaluation serves the blocks and the patterns.  The cache lives as long
    as the process.
    """
    inner = _inner_patterns(families, layout, bound)
    spec, symbols = _symbol_templates(families, layout)
    deriv, columns = _generic_derivation(families, bound)
    n = len(columns) // 2
    forms = {form: k for k, form in enumerate(inner.forms)}
    block_0: list[_FormRow] = []
    block_b: list[_FormRow] = []
    for fam in families:
        rows: dict[tuple[str, Mono], dict[int, dict[int, GaussianRational]]] = {}
        for gen, poly in leibniz_residual(spec, deriv, "L", 0, fam, 1).terms.items():
            for mono, value in poly.terms.items():
                entries = rows.setdefault((gen.family, mono[:-2]), {})
                entries.setdefault(columns[mono[-1][0]], {})[symbols[mono[-2][0]]] = value
        for row in rows.values():
            folded: dict[int, dict[int, GaussianRational]] = {}
            for col, form in row.items():
                acc = folded.setdefault(col % n, {})
                for k, v in form.items():
                    acc[k] = acc[k] + v if k in acc else v
            block_0.append(_interned(folded, forms))
            block_b.append(_interned({col - n: form for col, form in row.items() if col >= n},
                                     forms))
    # fewest entries first: the elimination then fills in less than in the
    # residual's term order (sort is stable, so ties keep that order)
    return inner._replace(block_0=tuple(sorted(filter(None, block_0), key=len)),
                          block_b=tuple(sorted(filter(None, block_b), key=len)),
                          forms=tuple(forms))


def _evaluated(spec: AlgebraSpec, bound: int, cached=_linearization):
    """The ``cached`` entry (``_linearization`` or ``_inner_patterns``) of
    ``spec``'s layout at ``bound``, looked up once, and the value of each of
    its forms at ``spec``'s template coefficients, computed once (a list
    that ends with the caller)."""
    layout, coefficients = _template_layout(spec)
    entry = cached(spec.families, layout, bound)
    return entry, [sum((v * coefficients[k] for k, v in form), ZERO) for form in entry.forms]


def _evaluated_rows(rows: tuple[_FormRow, ...], values: list[GaussianRational]) -> list[SparseRow]:
    """``rows`` at the form ``values``, without zero entries (an empty row
    stays empty)."""
    return [{col: values[f] for col, f in row if values[f]} for row in rows]


def _index0_patterns(entry: _Linearization, values: list[GaussianRational],
                     coords: _Coords) -> list[SparseRow]:
    """The index-0 inner patterns of ``entry`` at the form ``values``, one
    per (X, k) as ``inner_window_vectors`` orders them.

    Raises ``DegreeBoundExceeded`` as ``_Coords.vector_of`` does for the
    first pattern entry past the bound that evaluates nonzero, placed at
    the first index of the window.
    """
    for src, mono, f in entry.beyond:
        if values[f]:
            raise DegreeBoundExceeded(
                f"image of {src}[{-coords.src_window}] uses monomial {dict(mono)} beyond "
                f"degree {coords.bound}"
            )
    return _evaluated_rows(entry.patterns, values)


def _lzero_blocks(spec: AlgebraSpec, coords: _Coords) -> tuple[list[SparseRow], list[SparseRow]]:
    """Block 0 and B of the lzero Leibniz system (see the module
    docstring) on the n index-0 columns of the window-0 layout ``coords``,
    evaluated from the ``_linearization`` entry of ``spec``'s layout, with
    the nonzero entries and the rows that hold one."""
    entry, values = _evaluated(spec, coords.bound)
    return tuple([row for row in _evaluated_rows(block, values) if row]
                 for block in (entry.block_0, entry.block_b))


def _lzero_kernel(
    spec: AlgebraSpec, coords: _Coords
) -> tuple[list[SparseRow], list[SparseRow] | None, list[SparseRow]]:
    """Kernels of block 0 and of B (``_lzero_blocks``) on the n index-0
    columns, None for B of an algebra restricted to index 0, and the
    index-0 inner patterns (``inner_window_vectors`` at window 0), from one
    lookup of ``_linearization`` and one evaluation of its forms.

    Before each elimination ``pin_single_entry_rows`` turns the rows with
    one entry into unit rows (at csv(1/2, 1), 215 of the 476 rows of block 0
    pin 74 of its 135 columns, and 301 of the 473 rows of B pin 111), which
    keeps the row space and so the kernel vectors.
    """
    entry, values = _evaluated(spec, coords.bound)
    patterns = _index0_patterns(entry, values, coords)

    def kernel(block: tuple[_FormRow, ...]) -> list[SparseRow]:
        rows = pin_single_entry_rows(_evaluated_rows(block, values))
        return list(reduce_rows(rows, None, coords.n).kernel_vectors().values())

    ker_b = None if spec.index0_only else kernel(entry.block_b)
    return kernel(entry.block_0), ker_b, patterns


def inner_window_vectors(spec: AlgebraSpec, coords: _Coords) -> list[SparseRow]:
    """Window restrictions of ad(d^k X_c) for k < bound, X over the families.

    The same vectors as ``coords.vector_of(ad(spec, d^k X_c, window))``, in
    that order: each is its index-0 pattern (see the module docstring),
    evaluated from the ``_inner_patterns`` entry of ``spec``'s layout at
    ``coords.bound``, placed at every index of the window.
    """
    window = coords.src_window
    _refuse_off_index0(spec, "ad", window, abs(coords.degree))
    entry, values = _evaluated(spec, coords.bound, _inner_patterns)
    starts = [(i + window) * coords.n for i in range(-window, window + 1)]
    return [{start + col: value for start in starts for col, value in pattern.items()}
            for pattern in _index0_patterns(entry, values, coords)]


@dataclass
class DerivationSolveResult:
    """Kernel of the graded Leibniz system with its inner comparison.

    The result keeps the kernel vectors of block 0 and of B on the n
    index-0 columns of the window-0 layout ``coords`` (``kernel_b`` is None
    for an algebra restricted to index 0, which has no B);
    ``kernel0_dimension`` and ``kernel_b_dimension`` are their counts, and
    ``dimension`` is dim ker(block 0) + 2 * window * dim ker B.
    ``inner_rank`` is the rank of the index-0 inner patterns, which is the
    inner rank at every window.  ``basis`` is built from the kernel vectors
    on its first read; no verdict reads it.
    """

    degree: int
    window: int
    inner_rank: int
    scope_note: str
    coords: _Coords = field(repr=False)
    kernel_0: list[SparseRow] = field(repr=False)
    kernel_b: list[SparseRow] | None = field(repr=False)

    @property
    def kernel0_dimension(self) -> int:
        return len(self.kernel_0)

    @property
    def kernel_b_dimension(self) -> int | None:
        return None if self.kernel_b is None else len(self.kernel_b)

    @property
    def dimension(self) -> int:
        return len(self.kernel_0) + 2 * self.window * len(self.kernel_b or ())

    @property
    def extra_dimension(self) -> int:
        return self.dimension - self.inner_rank

    @property
    def every_window(self) -> bool:
        """ker B = 0: dimension and inner rank are the same at every window."""
        return self.kernel_b_dimension == 0

    @functools.cached_property
    def basis(self) -> list[DerivationSpec]:
        """Each block-0 kernel vector, read as an index-0 pattern and
        relabelled to every index of the window, then each ker-B vector
        placed at each j != 0."""
        coords, window = self.coords, self.window
        spec = coords.spec

        def at0(vec: SparseRow) -> dict[str, GenPoly]:
            return {fam: image for (fam, _), image in coords.derivation_of(vec).images.items()}

        basis = [_uniform(spec, at0(x0), window, self.degree) for x0 in self.kernel_0]
        basis.extend(_uniform(spec, at0(y), window, self.degree, (j,))
                     for j in range(-window, window + 1) if j for y in self.kernel_b or ())
        return basis


def _refuse_inner_outside(spec: AlgebraSpec, coords: _Coords, ker_0: list[SparseRow],
                          patterns: list[SparseRow]) -> None:
    """Raise ``InnerNotInKernel`` for the first inner pattern, in
    ``inner_window_vectors`` order, that is not in the span of ``ker_0``."""
    for position, pattern in enumerate(patterns):
        if reduce_rows(ker_0 + [pattern], None, coords.n).rank != len(ker_0):
            fam, k = spec.families[position // coords.bound], position % coords.bound
            power = {0: "", 1: "d "}.get(k, f"d^{k} ")
            raise InnerNotInKernel(
                f"ad({power}{fam}[{coords.degree}]) is not in the solved kernel of "
                f"{spec.name} at image degree <= {coords.bound}: its bracket table "
                "fails the Leibniz rule for an inner derivation"
            )


def solve_graded_derivations(
    spec: AlgebraSpec,
    degree: int = 0,
    bound: int = 4,
    window: int = 2,
) -> DerivationSolveResult:
    """Solve for all degree-``degree`` derivations on a finite window.

    Unknowns are the image coefficients of the window generators (total
    degree <= ``bound``); equations are Leibniz residual coefficients of
    the pairs {(L_0, y_j)}, which carry the whole classification argument.
    The answer for any window comes from the index-0 data
    (``_lzero_kernel``), as the module docstring describes; the inner rank
    and the check "inner in kernel" are read on the index-0 patterns.  When
    ker B = 0 neither the dimension nor the inner rank depends on the
    window, and the scope note says so.  An inner pattern outside the
    kernel of block 0 means that the table is no Lie conformal algebra's;
    it raises ``InnerNotInKernel``, which names the first such ad(d^k X_c).

    The tests hold the answer to the hand-built whole systems: the
    (L_0, y_j) system, and the system of every pair with |i|, |j| <= window
    (over a source window twice as wide), each eliminated at once, with
    ``inner_window_vectors`` at that window.  An algebra restricted to
    index 0 (``index0_only``) has only window 0 at degree 0.
    """
    _refuse_symbolic(spec, "solve_graded_derivations")
    _refuse_negative(window=window, bound=bound)
    _refuse_off_index0(spec, "the derivation solver", window, degree)
    coords = _make_coords(spec, degree, bound, 0)
    ker_0, ker_b, patterns = _lzero_kernel(spec, coords)
    inner_rank = reduce_rows(patterns, None, coords.n).rank
    if reduce_rows(ker_0 + patterns, None, coords.n).rank != len(ker_0):
        _refuse_inner_outside(spec, coords, ker_0, patterns)
    if ker_b == []:
        note = (
            "certified for every window (ker B = 0, so the dimension and the "
            f"inner rank do not depend on it), image degree <= {bound}; the "
            "infinite-rank statement is also quantified over all image degrees "
            "and is not decided by this finite run"
        )
    else:
        note = (
            f"certified at window |i| <= {window}, image degree <= {bound}; "
            "the infinite-rank statement is quantified over all indices and "
            "degrees and is not decided by this finite run"
        )
        if ker_b:
            note += f"; dim ker B = {len(ker_b)}, so the dimension grows with the window"
    return DerivationSolveResult(degree=degree, window=window, inner_rank=inner_rank,
                                 scope_note=note, coords=coords, kernel_0=ker_0,
                                 kernel_b=ker_b)


# ---------------------------------------------------------------------------
# decomposition into inner + scalar non-inner part
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    x: GenPoly
    q: GaussianRational
    position: int


def derivation_degree(deriv: DerivationSpec) -> int:
    degrees = set()
    for (fam, i), image in deriv.images.items():
        for gen in image.terms:
            degrees.add(gen.index - i)
    if not degrees:
        return deriv.degree if deriv.degree is not None else 0
    if len(degrees) > 1:
        raise NotDecomposable(f"derivation mixes grading degrees {sorted(degrees)}")
    return degrees.pop()


def decompose(
    spec: AlgebraSpec,
    deriv: DerivationSpec,
    bound: int = 6,
) -> Decomposition:
    """Write a graded derivation as ad(x) + q * (M-valued family at c).

    Solves linearly for x = f(d) L_c + g(d) M_c + h(d) Y_c with deg <= bound
    and, when the algebra has M and the weight A of its L-action is 0
    (``weight_of``; a = 1), a scalar q; uniqueness is certified by an empty
    kernel.
    """
    _refuse_symbolic(spec, "decompose")
    _refuse_negative(bound=bound)
    _refuse_unknown_families(spec, deriv)
    include_q = "M" in spec.families and not weight_of(spec, "M")[0]
    c = derivation_degree(deriv)
    coords = _make_coords(spec, c, bound + 1, deriv.window)
    columns = inner_window_vectors(spec, coords)
    labels: list[tuple[str, int] | str] = [
        (fam, k) for fam in spec.families for k in range(bound + 1)
    ]
    if include_q:
        columns.append(
            coords.vector_of(d_vec(spec, {c: GaussianRational.of(1)}, deriv.window))
        )
        labels.append("q")
    rhs_vec = coords.vector_of(deriv)
    # one row per coordinate that a column or the right-hand side touches
    rows: dict[int, SparseRow] = {r: {} for r in rhs_vec}
    for k, col in enumerate(columns):
        for r, value in col.items():
            rows.setdefault(r, {})[k] = value
    order = sorted(rows)
    try:
        ech = reduce_rows(
            [rows[r] for r in order],
            [MPoly.const(rhs_vec.get(r, ZERO)) for r in order],
            len(columns),
        )
    except Inconsistent as exc:
        raise NotDecomposable(
            "no inner + scalar decomposition at this degree bound"
        ) from exc
    if ech.free_columns():
        raise NotDecomposable("decomposition is not unique: ad has a window kernel")
    x = GenPoly.zero()
    q = GaussianRational.of(0)
    for label, value in zip(labels, ech.particular_solution()):
        coeff = value.constant_value()
        if not coeff:
            continue
        if label == "q":
            q = coeff
        else:
            fam, k = label
            x = x + GenPoly.unit(fam, c, MPoly.var(VAR_D, k).scale(coeff))
    return Decomposition(x=x, q=q, position=c)


# ---------------------------------------------------------------------------
# derivation text format
# ---------------------------------------------------------------------------


def serialize_derivation(deriv: DerivationSpec) -> str:
    lines = ["derivation"]
    lines.append("families " + " ".join(deriv.families))
    lines.append(f"window {deriv.window}")
    if deriv.degree is not None:
        lines.append(f"degree {deriv.degree}")
    for (fam, i), image in sorted(deriv.images.items()):
        for gen, poly in sorted(image.terms.items()):
            lines.append(f"image {fam} {i} -> {gen.family} {gen.index} : {poly}")
    return "\n".join(lines) + "\n"


def _line_int(text: str, directive: str, line: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {directive} line: {line!r}") from None


def parse_derivation(text: str) -> DerivationSpec:
    families: tuple[str, ...] = ()
    window = 0
    window_line = ""
    degree: int | None = None
    images: dict[tuple[str, int], dict[Generator, MPoly]] = {}
    image_lines: list[tuple[str, tuple[str, str], int]] = []
    for head, rest, line in text_lines(text, ("families", "window", "degree")):
        if head == "derivation":
            continue
        if head == "families":
            families = tuple(rest.split())
        elif head == "window":
            window = _line_int(rest, head, line)
            window_line = line
            if window < 0:
                raise ValueError(f"bad window line: {line!r}: window must be >= 0, got {window}")
        elif head == "degree":
            degree = _line_int(rest, head, line)
        elif head == "image":
            src_part, _, poly_part = rest.partition(":")
            words = src_part.split()
            if len(words) != 5 or words[2] != "->":
                raise ValueError(f"bad image line: {line!r}")
            fam, idx, _, tgt_fam, tgt_idx = words
            gen = Generator(tgt_fam, _line_int(tgt_idx, head, line))
            idx = _line_int(idx, head, line)
            image_lines.append((line, (fam, tgt_fam), idx))
            poly = line_poly(poly_part, head, line)
            stray = [name for name in poly.variables() if name not in (VAR_D, VAR_L)]
            if stray:
                raise StrayVariable(
                    f"bad {head} line: {line!r}: image of {fam}[{idx}] has a term "
                    f"in {', '.join(stray)} besides {VAR_D} and {VAR_L}"
                )
            slot = images.setdefault((fam, idx), {})
            slot[gen] = slot.get(gen, MPoly.zero()) + poly
        else:
            raise ValueError(f"unknown directive {head!r} in derivation text")
    for line, named, idx in image_lines:
        for family in named:
            if family not in families:
                raise ValueError(
                    f"bad image line: {line!r}: family {family} is not on the "
                    "families line"
                )
        if abs(idx) > window:
            where = repr(window_line) if window_line else "0 (no window line)"
            raise ValueError(
                f"bad image line: {line!r}: {named[0]}[{idx}] lies outside the window {where}"
            )
    out = DerivationSpec(families=families, window=window, degree=degree)
    for (fam, idx), terms in images.items():
        gp = GenPoly(terms)
        if not gp.is_zero():
            out.images[(fam, idx)] = gp
    return out
