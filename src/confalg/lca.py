"""Graded Lie conformal algebra core.

An algebra is described by a family set and a table of bracket templates:
the bracket of two generators ``A_i``, ``B_j`` is a sum of templates
``T(d, l)`` attached to target generators ``F_{i+j}``.  Templates never
depend on the indices themselves, only on the index sum, so one symbolic
check per family tuple covers every index combination.

Bracket evaluation extends the generator table bilinearly via conformal
sesquilinearity:

    [p(d) u  _v  q(d) w] = p(-v) * q(d+v) * [u _v w]

The checkers return residual polynomials; a residual that is identically
zero certifies the corresponding axiom for all generator indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .poly import GaussianRational, MPoly, ParseError, PolyLike, parse_poly

VAR_D = "d"  # the C[d]-module generator symbol
VAR_L = "l"  # primary bracket variable
VAR_M = "m"  # secondary bracket variable

#: the bracket variables l, m and their sum l + m as polynomials, built once
POLY_L = MPoly.var(VAR_L)
POLY_M = MPoly.var(VAR_M)
POLY_L_PLUS_M = POLY_L + POLY_M


class UnknownFamily(KeyError):
    """A generator family that the algebra does not declare."""


class WindowTooSmall(ValueError):
    """An index window does not cover the data a check needs."""


class DegreeBoundExceeded(ValueError):
    """A solver step would need polynomial degree above the configured bound."""


@dataclass(frozen=True, order=True)
class Generator:
    """One basis symbol ``family_index`` of a graded algebra."""

    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}[{self.index}]"


class GenPoly:
    """A finite polynomial combination of generators.

    Used both for algebra members (coefficients in ``d`` and parameters)
    and for bracket values (coefficients also involving bracket variables).
    Values are immutable: ``terms`` is a read-only view.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Generator, PolyLike] | None = None):
        out: dict[Generator, MPoly] = {}
        for gen, poly in (terms or {}).items():
            p = MPoly.of(poly)
            if not p.is_zero():
                out[gen] = p
        object.__setattr__(self, "terms", MappingProxyType(out))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GenPoly is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("GenPoly is immutable")

    def __reduce__(self):
        return (GenPoly, (dict(self.terms),))

    @staticmethod
    def zero() -> "GenPoly":
        return GenPoly()

    @staticmethod
    def unit(family: str, index: int, coeff: PolyLike = 1) -> "GenPoly":
        return GenPoly({Generator(family, index): MPoly.of(coeff)})

    def __add__(self, other: "GenPoly") -> "GenPoly":
        out = dict(self.terms)
        for gen, poly in other.terms.items():
            out[gen] = out.get(gen, MPoly.zero()) + poly
        return GenPoly(out)

    def __neg__(self) -> "GenPoly":
        return GenPoly({gen: -poly for gen, poly in self.terms.items()})

    def __sub__(self, other: "GenPoly") -> "GenPoly":
        return self + (-other)

    def scale(self, factor: PolyLike) -> "GenPoly":
        f = MPoly.of(factor)
        return GenPoly({gen: poly * f for gen, poly in self.terms.items()})

    def map_polys(self, fn: Callable[[MPoly], MPoly]) -> "GenPoly":
        return GenPoly({gen: fn(poly) for gen, poly in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = [
            f"({poly})*{gen}"
            for gen, poly in sorted(self.terms.items(), key=lambda kv: kv[0])
        ]
        return " + ".join(parts)

    __repr__ = __str__


@dataclass(frozen=True)
class AlgebraSpec:
    """Family set plus bracket templates; absent pairs mean zero bracket.

    ``table`` holds, for each ordered family pair, the targets and their
    templates as polynomials in ``d`` and ``l`` (parameters allowed).  Both
    orientations of every nonzero bracket must be stored explicitly; the
    skew checker verifies (rather than assumes) their compatibility.
    """

    name: str
    families: tuple[str, ...]
    table: Mapping[tuple[str, str], tuple[tuple[str, MPoly], ...]]
    index0_only: bool = False
    parameters: tuple[str, ...] = ()

    def check_family(self, family: str) -> str:
        if family not in self.families:
            raise UnknownFamily(f"{family!r} is not a family of {self.name}")
        return family

    def templates(self, fam_a: str, fam_b: str) -> tuple[tuple[str, MPoly], ...]:
        self.check_family(fam_a)
        self.check_family(fam_b)
        return self.table.get((fam_a, fam_b), ())


def skew_image(template: MPoly) -> MPoly:
    """The template of the reversed bracket forced by skew-symmetry.

    For ``[a _l b] = T(d, l) c`` the reverse is ``[b _l a] = -T(d, -d-l) c``.
    """
    return -template.substitute(VAR_L, -(MPoly.var(VAR_D) + POLY_L))


def weight_of(spec: AlgebraSpec, source_fam: str) -> tuple[GaussianRational, GaussianRational]:
    """Weights (A, B) of the equation governing the ``source_fam`` action.

    Derived from the bracket template of [L _l F] = T F: the acted identity
    carries the factor W(l, m) = T at d -> -(l+m), which must have the affine
    form A l - m + B.
    """
    w = dict(spec.templates("L", source_fam))[source_fam].substitute(VAR_D, -POLY_L_PLUS_M)
    A = w.coeff_extract([VAR_L, VAR_M], {VAR_L: 1}).constant_value()
    B = w.coeff_extract([VAR_L, VAR_M], {}).constant_value()
    if w != POLY_L.scale(A) - POLY_M + MPoly.const(B):
        raise ValueError(f"weight {w} of family {source_fam} is not A*l - m + B")
    return A, B


def make_algebra(
    name: str,
    families: Iterable[str],
    declared: Mapping[tuple[str, str], Iterable[tuple[str, PolyLike]]],
    *,
    index0_only: bool = False,
    parameters: Iterable[str] = (),
    close_skew: bool = True,
) -> AlgebraSpec:
    """Build an AlgebraSpec from the declared templates.

    With ``close_skew`` the reversed orientation of every declared pair is
    filled in mechanically (declared reversals win, so deliberately broken
    tables can still be constructed for negative tests).
    """
    table: dict[tuple[str, str], tuple[tuple[str, MPoly], ...]] = {}
    for (fa, fb), entries in declared.items():
        table[(fa, fb)] = tuple((tgt, MPoly.of(t)) for tgt, t in entries)
    if close_skew:
        for (fa, fb), entries in list(table.items()):
            if (fb, fa) in table:
                continue
            if fa == fb:
                continue
            table[(fb, fa)] = tuple((tgt, skew_image(t)) for tgt, t in entries)
    return AlgebraSpec(
        name=name,
        families=tuple(families),
        table=table,
        index0_only=index0_only,
        parameters=tuple(parameters),
    )


# ---------------------------------------------------------------------------
# bracket evaluation
# ---------------------------------------------------------------------------


def conformal_bracket(
    spec: AlgebraSpec,
    x: GenPoly,
    y: GenPoly,
    bracket_var: PolyLike | str = VAR_L,
) -> GenPoly:
    """Evaluate ``[x _v y]`` with ``v`` given as a variable or polynomial.

    Coefficients of ``x`` are evaluated at ``d -> -v`` and coefficients of
    ``y`` are shifted ``d -> d + v``; any other formal variables they carry
    (e.g. an inner bracket variable) ride along untouched.
    """
    v = MPoly.var(bracket_var) if isinstance(bracket_var, str) else MPoly.of(bracket_var)
    keep_l = isinstance(bracket_var, str) and bracket_var == VAR_L
    acc: dict[Generator, MPoly] = {}
    for gx, px in x.terms.items():
        spec.check_family(gx.family)
        px_at = px.substitute(VAR_D, -v)
        for gy, py in y.terms.items():
            spec.check_family(gy.family)
            entries = spec.table.get((gx.family, gy.family))
            if not entries:
                continue
            py_shift = py.shift(VAR_D, v)
            factor = px_at * py_shift
            index = gx.index + gy.index
            for target_family, template in entries:
                t = template if keep_l else template.substitute(VAR_L, v)
                gen = Generator(target_family, index)
                acc[gen] = acc.get(gen, MPoly.zero()) + factor * t
    out = GenPoly(acc)
    if spec.index0_only:
        for gen in out.terms:
            if gen.index != 0:
                raise UnknownFamily(
                    f"{spec.name} is restricted to index 0, got {gen}"
                )
    return out


def bracket(spec: AlgebraSpec, x: GenPoly, y: GenPoly) -> GenPoly:
    """``[x _l y]`` - the standard single-variable bracket."""
    return conformal_bracket(spec, x, y, VAR_L)


def grading_project(x: GenPoly, index: int) -> GenPoly:
    """Keep only the weight-``index`` part of a combination."""
    return GenPoly({gen: p for gen, p in x.terms.items() if gen.index == index})


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def check_skew(spec: AlgebraSpec, fam_a: str, fam_b: str) -> GenPoly:
    """Residual of ``[a _l b] + [b _{-l-d} a]`` on the family templates."""
    lhs = conformal_bracket(spec, GenPoly.unit(fam_a, 0), GenPoly.unit(fam_b, 0), VAR_L)
    rev = conformal_bracket(spec, GenPoly.unit(fam_b, 0), GenPoly.unit(fam_a, 0), VAR_M)
    swap = rev.map_polys(
        lambda p: p.substitute(VAR_M, -(MPoly.var(VAR_D) + POLY_L))
    )
    return lhs + swap


def check_jacobi(spec: AlgebraSpec, fam_a: str, fam_b: str, fam_c: str) -> GenPoly:
    """Residual of ``[a_l [b_m c]] - [[a_l b]_{l+m} c] - [b_m [a_l c]]``."""
    a = GenPoly.unit(fam_a, 0)
    b = GenPoly.unit(fam_b, 0)
    c = GenPoly.unit(fam_c, 0)
    t1 = conformal_bracket(spec, a, conformal_bracket(spec, b, c, VAR_M), VAR_L)
    t2 = conformal_bracket(spec, conformal_bracket(spec, a, b, VAR_L), c, POLY_L_PLUS_M)
    t3 = conformal_bracket(spec, b, conformal_bracket(spec, a, c, VAR_L), VAR_M)
    return t1 - t2 - t3


@dataclass
class AxiomReport:
    """Residuals of every skew pair and Jacobi triple of an algebra."""

    algebra: str
    skew: dict[tuple[str, str], GenPoly] = field(default_factory=dict)
    jacobi: dict[tuple[str, str, str], GenPoly] = field(default_factory=dict)

    @property
    def all_zero(self) -> bool:
        return all(r.is_zero() for r in self.skew.values()) and all(
            r.is_zero() for r in self.jacobi.values()
        )

    def nonzero_checks(self) -> list[str]:
        out = [f"skew {a},{b}" for (a, b), r in self.skew.items() if not r.is_zero()]
        out += [
            f"jacobi {a},{b},{c}"
            for (a, b, c), r in self.jacobi.items()
            if not r.is_zero()
        ]
        return out


def check_all_axioms(spec: AlgebraSpec) -> AxiomReport:
    """Skew on every unordered family pair, Jacobi on every multiset triple.

    Checking one ordering per multiset is exhaustive whenever the skew
    residuals vanish, which the same report establishes.
    """
    report = AxiomReport(algebra=spec.name)
    for fam_a, fam_b in combinations_with_replacement(spec.families, 2):
        report.skew[(fam_a, fam_b)] = check_skew(spec, fam_a, fam_b)
    for fam_a, fam_b, fam_c in combinations_with_replacement(spec.families, 3):
        report.jacobi[(fam_a, fam_b, fam_c)] = check_jacobi(spec, fam_a, fam_b, fam_c)
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_algebra(spec: AlgebraSpec) -> str:
    lines = [f"algebra {spec.name}"]
    lines.append("families " + " ".join(spec.families))
    if spec.parameters:
        lines.append("parameters " + " ".join(spec.parameters))
    if spec.index0_only:
        lines.append("grading index0")
    for (fa, fb), entries in sorted(spec.table.items()):
        for target, template in entries:
            lines.append(f"bracket {fa} {fb} -> {target} : {template}")
    return "\n".join(lines) + "\n"


def line_poly(text: str, directive: str, line: str) -> MPoly:
    """``parse_poly`` on the polynomial field of a text-format line; a
    malformed field is a ``ValueError`` that names the directive and quotes
    the line."""
    try:
        return parse_poly(text)
    except ParseError as exc:
        raise ValueError(f"bad {directive} line: {line!r}: {exc}") from exc


def text_lines(text: str, once: tuple[str, ...] = ()) -> Iterator[tuple[str, str, str]]:
    """``(directive, rest, line)`` for each line of a text format that is not
    blank or a ``#`` comment.  A second line of a directive in ``once`` is a
    ``ValueError`` that quotes it."""
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head in once and head in seen:
            raise ValueError(f"bad {head} line: {line!r}: {head} is given twice")
        seen.add(head)
        yield head, rest, line


def parse_algebra(text: str) -> AlgebraSpec:
    name = ""
    families: tuple[str, ...] = ()
    parameters: tuple[str, ...] = ()
    index0_only = False
    table: dict[tuple[str, str], list[tuple[str, MPoly]]] = {}
    bracket_lines: list[tuple[str, tuple[str, ...], MPoly]] = []
    for head, rest, line in text_lines(text, ("algebra", "families", "parameters", "grading")):
        if head == "algebra":
            name = rest.strip()
        elif head == "families":
            families = tuple(rest.split())
        elif head == "parameters":
            parameters = tuple(rest.split())
        elif head == "grading":
            if rest.strip() != "index0":
                raise ValueError(f"bad grading line: {line!r}: the only grading is index0")
            index0_only = True
        elif head == "bracket":
            pair_part, _, poly_part = rest.partition(":")
            words = pair_part.split()
            if len(words) != 4 or words[2] != "->":
                raise ValueError(f"bad bracket line: {line!r}")
            fa, fb, _, target = words
            template = line_poly(poly_part, head, line)
            table.setdefault((fa, fb), []).append((target, template))
            bracket_lines.append((line, (fa, fb, target), template))
        else:
            raise ValueError(f"unknown directive {head!r} in algebra text")
    if not name or not families:
        raise ValueError("algebra text needs a name and a families line")
    for line, named, template in bracket_lines:
        for family in named:
            if family not in families:
                raise ValueError(
                    f"bad bracket line: {line!r}: family {family} is not on the "
                    "families line"
                )
        for var in template.variables():
            if var not in (VAR_D, VAR_L, *parameters):
                raise ValueError(
                    f"bad bracket line: {line!r}: template has a term in {var}, "
                    f"which is neither {VAR_D}, {VAR_L} nor on the parameters line"
                )
    return AlgebraSpec(
        name=name,
        families=families,
        table={k: tuple(v) for k, v in table.items()},
        index0_only=index0_only,
        parameters=parameters,
    )
