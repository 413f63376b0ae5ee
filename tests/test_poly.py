import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg.poly import (
    ONE,
    GaussianRational,
    MPoly,
    NotDivisible,
    ParseError,
    parse_poly,
    parse_scalar,
    var_sort_key,
)

from conftest import VAR_NAMES, polys, scalars

D = MPoly.var("d")
L = MPoly.var("l")


def P(text):
    return parse_poly(text)


class TestScalar:
    def test_reduction_and_canonical_zero(self):
        x = GaussianRational(Fraction(2, 4), Fraction(0))
        assert x.re == Fraction(1, 2)
        assert not GaussianRational(Fraction(0), Fraction(0))

    def test_field_ops(self):
        x = parse_scalar("(1/2+3/4*i)")
        y = parse_scalar("(2-1*i)")
        assert (x * y) / y == x
        assert x + (-x) == GaussianRational.of(0)

    def test_negative_power_is_inverse(self):
        c = GaussianRational.of(Fraction(2, 3))
        assert c**-2 == GaussianRational.of(Fraction(9, 4))


#: int, Fraction and GaussianRational operands; conftest's scalars have a
#: zero imaginary part about half the time
OPERANDS = st.one_of(
    scalars(),
    st.integers(-8, 8),
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 5)),
)


def _parts(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


class TestScalarFastPath:
    """Results must not depend on whether the real-only path was taken."""

    @staticmethod
    def check(result, re, im):
        assert type(result.re) is Fraction and type(result.im) is Fraction
        assert (result.re, result.im) == (re, im)
        expected = GaussianRational(re, im)
        assert result == expected
        assert hash(result) == hash(expected)

    @given(scalars(), OPERANDS)
    def test_binary_ops_match_general_formula(self, x, y):
        a, b = x.re, x.im
        c, d = _parts(y)
        self.check(x + y, a + c, b + d)
        self.check(y + x, c + a, d + b)
        self.check(x - y, a - c, b - d)
        self.check(y - x, c - a, d - b)
        self.check(x * y, a * c - b * d, a * d + b * c)
        self.check(y * x, c * a - d * b, c * b + d * a)

    @given(scalars())
    def test_negation_and_truth(self, x):
        self.check(-x, -x.re, -x.im)
        assert bool(x) == (x.re != 0 or x.im != 0)
        assert x.is_rational == (x.im == 0)


class TestArithmetic:
    def test_cancellation(self):
        assert P("d + 2*l") + P("-d") == P("2*l")

    def test_weight_product(self):
        # (d+b)(d+b+l), the case-split action product
        assert P("d+b") * P("d+b+l") == P("d^2 + 2*b*d + l*d + b^2 + b*l")

    def test_zero_annihilates(self):
        assert (P("d + a*l + b") * MPoly.zero()).is_zero()

    def test_canonical_no_zero_terms(self):
        p = P("d + 2*l")
        assert not (p - p).terms


class TestSubstitution:
    def test_linear(self):
        assert P("d + 2*l").substitute("l", P("-d - l")) == P("-d - 2*l")

    def test_shift(self):
        assert P("d + a*l + b").shift("d", MPoly.var("m")) == P("d + m + a*l + b")

    def test_power_evaluation(self):
        p = MPoly.var("c") ** 3
        assert p.substitute("c", 2) == MPoly.const(8)

    def test_single_pass_semantics(self):
        # occurrences introduced by the replacement are not rewritten again
        p = MPoly.var("m")
        assert p.substitute("m", P("-d - l")) == P("-d - l")


class TestCoeffExtract:
    def test_mixed_monomial(self):
        p = P("(a+1)*d*l + b*d")
        assert p.coeff_extract(["d", "l"], {"d": 1, "l": 1}) == P("a + 1")

    def test_absent_monomial_is_zero(self):
        p = P("d + 2*l")
        assert p.coeff_extract(["d", "l"], {"d": 5}).is_zero()

    def test_parameter_coefficient(self):
        p = P("2*ap*l^2 - 2*l^2")
        assert p.coeff_extract(["l"], {"l": 2}) == P("2*ap - 2")

    def test_outside_variable_rejected(self):
        with pytest.raises(ValueError):
            P("d").coeff_extract(["d"], {"l": 1})


class TestDivision:
    def test_monomial_divisor(self):
        assert P("l*d + 2*l^2").divide_exact(P("l")) == P("d + 2*l")

    def test_binomial_divisor(self):
        assert (P("l - b") * P("d + 1")).divide_exact(P("l - b")) == P("d + 1")

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            P("d + 1").divide_exact(P("l"))

    def test_divmod_monic(self):
        q, r = P("d^2 + l*d + 3").divmod_in(P("d + b"), "d")
        assert q * P("d + b") + r == P("d^2 + l*d + 3")
        assert r.degree_in("d") <= 0


class TestTextFormat:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "(1/2)*d + (3/2)*l - (1/2)*b",
            "d^2 + 2*b*d + l*d + b^2 + b*l",
            "(0+1*i)*d - 2",
            "(1/2-3/4*i)",
        ],
    )
    def test_round_trip_fixed(self, text):
        assert str(parse_poly(str(parse_poly(text)))) == str(parse_poly(text))

    def test_display_order_graded_lex(self):
        assert str(P("b + l + d")) == "d + l + b"
        assert str(P("l + d^2")) == "d^2 + l"

    def test_gaussian_scalar(self):
        assert parse_scalar("1/2") == GaussianRational(Fraction(1, 2), Fraction(0))
        assert parse_scalar("(0+1*i)") == GaussianRational(Fraction(0), Fraction(1))
        assert parse_scalar("2i") == GaussianRational(Fraction(0), Fraction(2))
        assert parse_scalar("1/2+3/4i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))

    def test_reserved_imaginary_name(self):
        with pytest.raises(ValueError):
            MPoly.var("i")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_poly("d +")
        with pytest.raises(ParseError):
            parse_poly("d / l")
        with pytest.raises(ParseError):
            parse_poly("2in")

    @given(polys())
    def test_round_trip_random(self, p):
        assert parse_poly(str(p)) == p


class TestRingLaws:
    @given(polys(), polys(), polys())
    def test_associativity_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p

    @given(polys(), polys())
    def test_divide_round_trip(self, p, q):
        if q.is_zero():
            q = MPoly.var("d") + 1
        assert (p * q).divide_exact(q) == p

    @given(polys())
    def test_coeff_reconstruction(self, p):
        total = MPoly.zero()
        for mono, coeff in p.split_by(["d", "l"]).items():
            total = total + coeff * MPoly({mono: GaussianRational.of(1)})
        assert total == p


def _triple(x: GaussianRational) -> tuple[int, int, int]:
    return (x._a, x._b, x._c)


class TestScalarTriple:
    """The integer triple is the value: reduced, immutable and copyable."""

    @given(scalars(), OPERANDS)
    def test_arithmetic_fields_equal_constructor_fields(self, x, y):
        a, b = x.re, x.im
        c, d = _parts(y)
        expected = [
            (x + y, a + c, b + d),
            (x - y, a - c, b - d),
            (y - x, c - a, d - b),
            (x * y, a * c - b * d, a * d + b * c),
            (-x, -a, -b),
        ]
        if c or d:
            norm = c * c + d * d
            expected.append((x / y, (a * c + b * d) / norm, (b * c - a * d) / norm))
        for result, re, im in expected:
            assert _triple(result) == _triple(GaussianRational(re, im))
            assert result._c > 0 and gcd(*_triple(result)) == 1

    def test_parts_are_reduced_fractions(self):
        x = GaussianRational(Fraction(2, 4), 3)
        assert _triple(x) == (1, 6, 2)
        assert type(x.im) is Fraction and x.im == 3
        assert _triple(ONE - ONE) == (0, 0, 1)

    def test_constructor_rejects_other_types(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5, 0)

    @given(scalars(), polys())
    def test_ops_with_a_poly_operand_in_both_orders(self, x, p):
        # the scalar defers to MPoly's reflected operation
        c = MPoly.const(x)
        assert x + p == p + x == c + p
        assert x - p == c - p and p - x == p - c
        assert x * p == p * x == c * p
        assert type(x + p) is type(x - p) is type(x * p) is MPoly

    @pytest.mark.parametrize("other", ["1", 0.5, None], ids=["str", "float", "none"])
    def test_ops_with_other_types_still_raise(self, other):
        x = parse_scalar("(1/2-3/4*i)")
        for op in (
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
        ):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        with pytest.raises(TypeError, match="cannot interpret"):
            GaussianRational.of(parse_poly("d"))

    @pytest.mark.parametrize(
        "value",
        [
            parse_scalar("(1/2-3/4*i)"),
            ONE,
            parse_poly("(1/2+3/4*i)*d*l - 2*b + 3"),
            MPoly.zero(),
        ],
        ids=["gaussian", "one", "poly", "zero-poly"],
    )
    def test_copy_deepcopy_pickle_round_trip(self, value):
        hash(value)
        for clone in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert str(clone) == str(value)

    def test_values_are_immutable(self):
        x = parse_scalar("(1/2-3/4*i)")
        with pytest.raises(AttributeError):
            x._a = 3
        with pytest.raises(AttributeError):
            x.re = Fraction(1)
        with pytest.raises(AttributeError):
            del x._b
        assert _triple(x) == (2, -3, 4)
        p = parse_poly("d + 1")
        with pytest.raises(TypeError):
            p.terms[()] = ONE
        assert p == parse_poly("d + 1")


def _assert_canonical(p: MPoly) -> None:
    assert type(p) is MPoly
    for mono, coeff in p.terms.items():
        names = [name for name, _ in mono]
        assert names == sorted(set(names), key=var_sort_key), mono
        assert all(type(e) is int and e > 0 for _, e in mono), mono
        assert type(coeff) is GaussianRational and coeff, (mono, coeff)


#: term maps as a caller might write them: names repeated or out of order,
#: zero exponents and zero coefficients
RAW_TERMS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(VAR_NAMES), st.integers(0, 3)), max_size=4),
        scalars(),
    ),
    max_size=5,
)


class TestCanonicalForm:
    def test_roadmap_repros(self):
        unsorted = MPoly({(("l", 1), ("d", 1)): ONE})
        assert unsorted == parse_poly("d*l") and (unsorted - parse_poly("d*l")).is_zero()
        assert MPoly({(("d", 0),): ONE}) == 1
        for p in (unsorted, MPoly({(("d", 0),): ONE})):
            _assert_canonical(p)

    @given(RAW_TERMS)
    def test_public_constructor_normalises(self, raw):
        terms = {tuple(mono): coeff for mono, coeff in raw}
        expected = MPoly.zero()
        for mono, coeff in terms.items():
            term = MPoly.const(coeff)
            for name, e in mono:
                term = term * MPoly.var(name, e)
            expected = expected + term
        got = MPoly(terms)
        _assert_canonical(got)
        assert got == expected and hash(got) == hash(expected)

    def test_public_constructor_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            MPoly({(("d", -1),): ONE})

    @given(polys(), polys(), scalars(), st.sampled_from(VAR_NAMES), st.integers(0, 3))
    def test_every_operation_returns_canonical_terms(self, p, q, c, name, k):
        divisor = q if not q.is_zero() else MPoly.var("d") + 1
        results = [
            p + q, p - q, -p, p * q, 1 - p, p.scale(c), p**k,
            p.substitute(name, q), p.shift(name, q),
            p.coeff_extract(["d", "l"], {"d": 1}),
            (p * divisor).divide_exact(divisor),
            MPoly(p.terms), MPoly.const(c), MPoly.var(name, k), parse_poly(str(p)),
            *p.split_by(["d", "l"]).values(),
            *p.divmod_in(MPoly.var("d") + q.substitute("d", 0), "d"),
        ]
        for result in results:
            _assert_canonical(result)


def _sympy():
    return pytest.importorskip("sympy")


def _to_sympy(p: MPoly):
    sp = _sympy()
    total = sp.Integer(0)
    for mono, coeff in p.terms.items():
        term = sp.Rational(coeff.re.numerator, coeff.re.denominator) + sp.I * sp.Rational(
            coeff.im.numerator, coeff.im.denominator
        )
        for name, e in mono:
            term *= sp.Symbol(name) ** e
        total += term
    return total


def _same(p: MPoly, expr) -> bool:
    return _sympy().expand(_to_sympy(p) - expr) == 0


class TestAgainstSympy:
    """Differential tests of the kernel against sympy's expansion."""

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_product(self, p, q):
        assert _same(p * q, _to_sympy(p) * _to_sympy(q))

    @settings(max_examples=60, deadline=None)
    @given(polys(), st.sampled_from(VAR_NAMES), polys())
    def test_substitute(self, p, name, value):
        sp = _sympy()
        expected = _to_sympy(p).subs(sp.Symbol(name), _to_sympy(value))
        assert _same(p.substitute(name, value), expected)

    @settings(max_examples=60, deadline=None)
    @given(polys(), st.sampled_from(VAR_NAMES), polys())
    def test_shift(self, p, name, delta):
        sp = _sympy()
        x = sp.Symbol(name)
        expected = _to_sympy(p).subs(x, x + _to_sympy(delta))
        assert _same(p.shift(name, delta), expected)

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys(), st.booleans())
    def test_divide_exact(self, p, q, r, exact):
        sp = _sympy()
        if q.is_zero():
            q = MPoly.var("d") + 1
        dividend = p * q if exact else p * q + r
        gens = [sp.Symbol(name) for name in VAR_NAMES]
        quo, rem = sp.Poly(_to_sympy(dividend), *gens, domain=sp.QQ_I).div(
            sp.Poly(_to_sympy(q), *gens, domain=sp.QQ_I)
        )
        # division by a single polynomial leaves remainder 0 exactly when it divides
        if rem.is_zero:
            assert _same(dividend.divide_exact(q), quo.as_expr())
        else:
            with pytest.raises(NotDivisible):
                dividend.divide_exact(q)
