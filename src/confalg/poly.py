"""Exact sparse multivariate polynomials over the Gaussian rationals.

Every structure constant handled by this package is a polynomial with
Gaussian-rational coefficients in the formal variables ``d`` (the module
generator, printed as ``d``), ``l`` and ``m`` (the two bracket variables),
``n`` (a spare bracket variable) and arbitrary named parameters.

A coefficient, ``GaussianRational``, is the integer triple ``(a, b, c)`` of
``(a + b*i) / c`` with ``c > 0`` and ``gcd(a, b, c) == 1``; its arithmetic
runs on Python integers with at most one gcd per result.

A polynomial, ``MPoly``, maps monomials (sorted ``(name, exponent)``
tuples) to nonzero coefficients.  The public constructor ``MPoly(terms)``
normalises any term map: it merges repeated names and colliding monomials,
drops zero exponents and zero coefficients, and sorts the names.  Every
operation builds its result through the private ``MPoly._new``, which wraps
a map that is canonical by construction without checking it.  So equality
of the canonical forms is mathematical equality.

Variable order for display and division is graded lexicographic with
``d < l < m < n < (all other names alphabetically)``.

The text format is a plain arithmetic expression, e.g.::

    (1/2)*d + (3/2)*l - (1/2)*b

``i`` denotes the imaginary unit inside coefficients and is therefore not a
legal variable name.  ``parse_poly`` round-trips the output of ``str()``
bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union


class ExactPolyError(Exception):
    """Base error for the polynomial layer."""


class NotDivisible(ExactPolyError):
    """Raised by exact division when the divisor does not divide exactly."""


class Inconsistent(ExactPolyError):
    """Raised by the linear solver when a system has no solution."""


class ParseError(ExactPolyError):
    """Raised on malformed polynomial text."""


#: ranks of the reserved structural variables; everything else sorts after
#: them alphabetically.
_STRUCTURAL_RANK = {"d": 0, "l": 1, "m": 2, "n": 3}

#: reserved token for the imaginary unit in the text format.
IMAG_TOKEN = "i"


def var_sort_key(name: str) -> tuple[int, str]:
    return (_STRUCTURAL_RANK.get(name, 4), name)


def check_var_name(name: str) -> str:
    if name == IMAG_TOKEN:
        raise ValueError("'i' is reserved for the imaginary unit")
    if not name or not name[0].isalpha() or not name.replace("_", "").isalnum():
        raise ValueError(f"bad variable name {name!r}")
    return name


class GaussianRational:
    """An exact complex number ``(a + b*i) / c`` over Python integers.

    The triple is kept with ``c > 0`` and ``gcd(a, b, c) == 1``, so equal
    numbers have equal fields and ``==`` and ``hash`` read the triple.
    ``re`` and ``im`` give the parts as reduced ``Fraction`` values.
    Values are immutable: the slots are written once, by the constructors.
    ``+``, ``-`` and ``*`` return ``NotImplemented`` for an operand that is
    not an int, ``Fraction`` or ``GaussianRational``, so that ``ONE + p``
    reaches ``MPoly``'s reflected operation.
    """

    __slots__ = ("_a", "_b", "_c")

    def __init__(self, re: Rational, im: Rational):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"parts must be int or Fraction, got {re!r} and {im!r}")
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators, gcd(a, b, c) is already 1
        c = lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (c // re.denominator))
        _set_b(self, im.numerator * (c // im.denominator))
        _set_c(self, c)

    @staticmethod
    def of(value: "ScalarLike") -> "GaussianRational":
        if type(value) is GaussianRational:
            return value
        if isinstance(value, int):
            return _gauss(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _gauss(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._c)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._c)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    def __add__(self, other: "ScalarLike") -> "GaussianRational":
        if type(other) is GaussianRational:
            o = other
        elif isinstance(other, (int, Fraction)):
            o = GaussianRational.of(other)
        else:
            return NotImplemented
        c = self._c
        if c == o._c:
            a = self._a + o._a
            b = self._b + o._b
            if c == 1:
                return _gauss(a, b, 1)
        else:
            c2 = o._c
            a = self._a * c2 + o._a * c
            b = self._b * c2 + o._b * c
            c *= c2
        return _reduced(a, b, c)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _gauss(-self._a, -self._b, self._c)

    def __sub__(self, other: "ScalarLike") -> "GaussianRational":
        if type(other) is GaussianRational:
            o = other
        elif isinstance(other, (int, Fraction)):
            o = GaussianRational.of(other)
        else:
            return NotImplemented
        c = self._c
        if c == o._c:
            a = self._a - o._a
            b = self._b - o._b
            if c == 1:
                return _gauss(a, b, 1)
        else:
            c2 = o._c
            a = self._a * c2 - o._a * c
            b = self._b * c2 - o._b * c
            c *= c2
        return _reduced(a, b, c)

    def __rsub__(self, other: "ScalarLike") -> "GaussianRational":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational.of(other) - self

    def __mul__(self, other: "ScalarLike") -> "GaussianRational":
        if type(other) is GaussianRational:
            o = other
        elif isinstance(other, (int, Fraction)):
            o = GaussianRational.of(other)
        else:
            return NotImplemented
        b1, b2 = self._b, o._b
        if not (b1 or b2):
            a = self._a * o._a
            c = self._c * o._c
            g = gcd(a, c)
            if g == 1:
                return _gauss(a, 0, c)
            return _gauss(a // g, 0, c // g)
        a1, a2 = self._a, o._a
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._c * o._c)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.of(other)
        a2, b2, c2 = o._a, o._b, o._c
        # (a1 + b1 i) / c1 * c2 / (a2 + b2 i), over the norm of a2 + b2 i
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        a1, b1 = self._a, self._b
        return _reduced(
            (a1 * a2 + b1 * b2) * c2, (b1 * a2 - a1 * b2) * c2, self._c * norm
        )

    def __pow__(self, power: int) -> "GaussianRational":
        if not isinstance(power, int):
            raise TypeError("exponent must be an integer")
        if power < 0:
            return (ONE / self) ** (-power)
        result = ONE
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._c == other._c

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._c))

    @property
    def is_rational(self) -> bool:
        return not self._b

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        if not self._b:
            return str(self.re)
        re, im = str(self.re), self.im
        if im < 0:
            return f"({re}-{-im}*i)"
        return f"({re}+{im}*i)"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_c = GaussianRational._c.__set__
_new_object = object.__new__


def _gauss(a: int, b: int, c: int) -> GaussianRational:
    """A scalar from a triple that already satisfies the invariants."""
    x = _new_object(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_c(x, c)
    return x


def _reduced(a: int, b: int, c: int) -> GaussianRational:
    """A scalar from any triple with ``c > 0``."""
    g = gcd(a, b, c)
    if g != 1:
        a //= g
        b //= g
        c //= g
    return _gauss(a, b, c)


Rational = Union[int, Fraction]
ScalarLike = Union[int, Fraction, GaussianRational]

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
IMAG = GaussianRational(0, 1)

#: a monomial: variable names with positive exponents, sorted by var order.
Mono = tuple[tuple[str, int], ...]

EMPTY_MONO: Mono = ()


def _item_key(item: tuple[str, int]) -> tuple[int, str]:
    return var_sort_key(item[0])


def _mono_from(exps: Mapping[str, int]) -> Mono:
    """The monomial of an exponent map; zero exponents are dropped."""
    return tuple(sorted(((name, e) for name, e in exps.items() if e), key=_item_key))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (na, ea), (nb, eb) = a[0], b[0]
        if na == nb:
            return ((na, ea + eb),)
        return a + b if var_sort_key(na) < var_sort_key(nb) else b + a
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items(), key=_item_key))


def _mono_degree(mono: Mono) -> int:
    return sum(e for _, e in mono)


def _mono_key(mono: Mono, varlist: Sequence[str]) -> tuple:
    # graded lex: total degree first, then exponents along the fixed order
    exps = dict(mono)
    return (_mono_degree(mono), tuple(exps.get(v, 0) for v in varlist))


def _nonzero(terms: dict[Mono, GaussianRational]) -> dict[Mono, GaussianRational]:
    return {mono: coeff for mono, coeff in terms.items() if coeff}


class MPoly:
    """A sparse polynomial in canonical form.

    Canonical means: every monomial lists distinct names with positive
    exponents in ``var_sort_key`` order, and no coefficient is zero.  The
    public constructor brings any term map to that form; operations build
    their results through ``MPoly._new``, which takes a map that already is
    canonical and does not check it.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Iterable[tuple[str, int]], ScalarLike] | None = None):
        out: dict[Mono, GaussianRational] = {}
        for mono, coeff in (terms or {}).items():
            exps: dict[str, int] = {}
            for name, e in mono:
                exps[name] = exps.get(name, 0) + e
            if any(e < 0 for e in exps.values()):
                raise ValueError(f"negative exponent in {mono!r}")
            key = _mono_from(exps)
            c = GaussianRational.of(coeff)
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        self._terms = _nonzero(out)
        self._hash: int | None = None

    @staticmethod
    def _new(terms: dict[Mono, GaussianRational]) -> "MPoly":
        """Wrap a canonical term map (owned by the result from now on)."""
        p = _new_object(MPoly)
        p._terms = terms
        p._hash = None
        return p

    def __reduce__(self):
        return (MPoly, (self._terms,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return _ZERO_POLY

    @staticmethod
    def const(value: ScalarLike) -> "MPoly":
        c = GaussianRational.of(value)
        return MPoly._new({EMPTY_MONO: c} if c else {})

    @staticmethod
    def var(name: str, power: int = 1) -> "MPoly":
        check_var_name(name)
        if power < 0:
            raise ValueError("negative exponent")
        if power == 0:
            return MPoly.const(1)
        return MPoly._new({((name, power),): ONE})

    @staticmethod
    def of(value: "PolyLike") -> "MPoly":
        if isinstance(value, MPoly):
            return value
        return MPoly.const(value)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Mono, GaussianRational]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono == EMPTY_MONO for mono in self._terms)

    def constant_value(self) -> GaussianRational:
        """The value of a constant polynomial (errors when not constant)."""
        if not self._terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms[EMPTY_MONO]

    def variables(self) -> tuple[str, ...]:
        seen = {name for mono in self._terms for name, _ in mono}
        return tuple(sorted(seen, key=var_sort_key))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(_mono_degree(mono) for mono in self._terms)

    def degree_in(self, name: str) -> int:
        if not self._terms:
            return -1
        return max(dict(mono).get(name, 0) for mono in self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PolyLike") -> "MPoly":
        o = MPoly.of(other)
        if not self._terms:
            return o
        if not o._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in o._terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                s = acc + coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return MPoly._new(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._new({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: "PolyLike") -> "MPoly":
        o = MPoly.of(other)
        if not o._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in o._terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = -coeff
            else:
                s = acc - coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return MPoly._new(out)

    def __rsub__(self, other: "PolyLike") -> "MPoly":
        return MPoly.of(other) - self

    def __mul__(self, other: "PolyLike") -> "MPoly":
        o = MPoly.of(other)
        if not self._terms or not o._terms:
            return _ZERO_POLY
        out: dict[Mono, GaussianRational] = {}
        get = out.get
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                mono = _mono_mul(m1, m2)
                prod = c1 * c2
                acc = get(mono)
                out[mono] = prod if acc is None else acc + prod
        return MPoly._new(_nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "MPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = None
        base = self
        while power:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if power:
                base = base * base
        return MPoly.const(1) if result is None else result

    def scale(self, value: ScalarLike) -> "MPoly":
        c = GaussianRational.of(value)
        if not c:
            return _ZERO_POLY
        return MPoly._new({mono: coeff * c for mono, coeff in self._terms.items()})

    # -- substitution and extraction ----------------------------------------

    def substitute(self, name: str, value: "PolyLike") -> "MPoly":
        """Replace ``name`` by ``value`` in a single simultaneous pass.

        Occurrences of ``name`` introduced by ``value`` itself are not
        rewritten again, so chaining through a fresh temporary variable gives
        simultaneous-substitution semantics.
        """
        repl = MPoly.of(value)
        out: dict[Mono, GaussianRational] = {}
        get = out.get
        powers: dict[int, dict[Mono, GaussianRational]] = {}
        for mono, coeff in self._terms.items():
            for k, (var_name, e) in enumerate(mono):
                if var_name == name:
                    break
            else:
                acc = get(mono)
                out[mono] = coeff if acc is None else acc + coeff
                continue
            rest = mono[:k] + mono[k + 1:]
            power = powers.get(e)
            if power is None:
                power = powers[e] = (repl**e)._terms
            for m2, c2 in power.items():
                m = _mono_mul(rest, m2)
                prod = coeff * c2
                acc = get(m)
                out[m] = prod if acc is None else acc + prod
        return MPoly._new(_nonzero(out))

    def shift(self, name: str, delta: "PolyLike") -> "MPoly":
        """Substitute ``name -> name + delta`` (e.g. the d -> d+l shift)."""
        return self.substitute(name, MPoly.var(name) + MPoly.of(delta))

    def coeff_extract(self, names: Iterable[str], mono: Mapping[str, int]) -> "MPoly":
        """Coefficient of the monomial ``mono`` over ``names``.

        The result is a polynomial in the remaining variables;
        ``sum(coeff * mono) over all monomials`` reconstructs the input.
        """
        names = frozenset(names)
        if any(name not in names for name in mono):
            raise ValueError("monomial involves a variable outside the given set")
        want = _mono_from(mono)
        # terms with the same part over names differ in their other part
        return MPoly._new({
            tuple(kv for kv in term_mono if kv[0] not in names): coeff
            for term_mono, coeff in self._terms.items()
            if tuple(kv for kv in term_mono if kv[0] in names) == want
        })

    def split_by(self, names: Iterable[str]) -> dict[Mono, "MPoly"]:
        """Decompose into ``{monomial over names: coefficient polynomial}``."""
        names = frozenset(names)
        groups: dict[Mono, dict[Mono, GaussianRational]] = {}
        for term_mono, coeff in self._terms.items():
            inside = tuple(kv for kv in term_mono if kv[0] in names)
            outside = tuple(kv for kv in term_mono if kv[0] not in names)
            groups.setdefault(inside, {})[outside] = coeff
        return {mono: MPoly._new(parts) for mono, parts in groups.items()}

    # -- division ------------------------------------------------------------

    def leading(self, varlist: Sequence[str] | None = None) -> tuple[Mono, GaussianRational]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        if varlist is None:
            varlist = self.variables()
        mono = max(self._terms, key=lambda mo: _mono_key(mo, varlist))
        return mono, self._terms[mono]

    def divide_exact(self, divisor: "PolyLike") -> "MPoly":
        """Return ``q`` with ``q * divisor == self`` or raise NotDivisible."""
        div = MPoly.of(divisor)
        if div.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO_POLY
        varlist = tuple(
            sorted(set(self.variables()) | set(div.variables()), key=var_sort_key)
        )
        lead_mono, lead_coeff = div.leading(varlist)
        lead_exps = dict(lead_mono)
        rem = self
        quo = _ZERO_POLY
        while not rem.is_zero():
            mono, coeff = rem.leading(varlist)
            exps = dict(mono)
            if any(exps.get(name, 0) < e for name, e in lead_exps.items()):
                raise NotDivisible(f"{div} does not divide {self}")
            for name, e in lead_exps.items():
                exps[name] -= e
            qterm = MPoly._new({_mono_from(exps): coeff / lead_coeff})
            quo = quo + qterm
            rem = rem - qterm * div
        return quo

    def divmod_in(self, divisor: "MPoly", name: str) -> tuple["MPoly", "MPoly"]:
        """Polynomial division by a divisor monic in ``name``.

        Other variables are treated as coefficients; the remainder has
        ``name``-degree strictly below the divisor's.
        """
        n = divisor.degree_in(name)
        if n <= 0:
            raise ValueError(f"divisor must have positive degree in {name!r}")
        lead = divisor.coeff_extract([name], {name: n})
        if not (lead.is_constant() and lead.constant_value() == ONE):
            raise ValueError(f"divisor must be monic in {name!r}")
        rem = self
        quo = _ZERO_POLY
        while (deg := rem.degree_in(name)) >= n:
            c = rem.coeff_extract([name], {name: deg})
            step = c * MPoly.var(name, deg - n)
            quo = quo + step
            rem = rem - step * divisor
        return quo, rem

    # -- canonical form ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"MPoly({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        varlist = self.variables()
        ordered = sorted(self._terms, key=lambda mo: _mono_key(mo, varlist), reverse=True)
        pieces: list[str] = []
        for k, mono in enumerate(ordered):
            coeff = self._terms[mono]
            sign, body = _term_text(mono, coeff)
            if k == 0:
                pieces.append(body if sign >= 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if sign >= 0 else f" - {body}")
        return "".join(pieces)


PolyLike = Union[MPoly, int, Fraction, GaussianRational]

_ZERO_POLY = MPoly()


def _term_text(mono: Mono, coeff: GaussianRational) -> tuple[int, str]:
    """Render one term; returns (sign, body-without-sign)."""
    mono_txt = "*".join(name if e == 1 else f"{name}^{e}" for name, e in mono)
    if coeff.is_rational:
        sign = 1 if coeff.re > 0 else -1
        mag = abs(coeff.re)
        if mono_txt and mag == 1:
            return sign, mono_txt
        mag_txt = str(mag) if mag.denominator == 1 else f"({mag})"
        return sign, f"{mag_txt}*{mono_txt}" if mono_txt else mag_txt
    # complex coefficients are always fully parenthesized with explicit parts
    coeff_txt = str(coeff)
    return 1, f"{coeff_txt}*{mono_txt}" if mono_txt else coeff_txt


# ---------------------------------------------------------------------------
# text format parser
# ---------------------------------------------------------------------------

_TOKEN_KINDS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
        elif ch in _TOKEN_KINDS:
            tokens.append(ch)
            k += 1
        elif ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[k:j])
            # a Gaussian literal such as 3/4i reads as 3/4*i
            after = text[j + 1:j + 2]
            if text[j:j + 1] == IMAG_TOKEN and not (after.isalnum() or after == "_"):
                tokens.extend(("*", IMAG_TOKEN))
                j += 1
            k = j
        elif ch.isalpha() or ch == "_":
            j = k
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[k:j])
            k = j
        else:
            raise ParseError(f"unexpected character {ch!r} in polynomial text")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def expr(self) -> MPoly:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> MPoly:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if not rhs.is_constant() or rhs.is_zero():
                    raise ParseError("division only by nonzero constants")
                value = value.scale(ONE / rhs.constant_value())
        return value

    def factor(self) -> MPoly:
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.factor()
        if tok == "+":
            self.take()
            return self.factor()
        return self.atom()

    def atom(self) -> MPoly:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("missing ')'")
            return self._maybe_power(inner)
        if tok.isdigit():
            return self._maybe_power(MPoly.const(Fraction(int(tok))))
        if tok == IMAG_TOKEN:
            return self._maybe_power(MPoly.const(IMAG))
        if tok[0].isalpha() or tok[0] == "_":
            return self._maybe_power(MPoly.var(tok))
        raise ParseError(f"unexpected token {tok!r}")

    def _maybe_power(self, base: MPoly) -> MPoly:
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError("exponent must be a non-negative integer")
            return base ** int(tok)
        return base


def parse_poly(text: str) -> MPoly:
    """Parse the polynomial text format (inverse of ``str``)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _Parser(tokens)
    value = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input near {parser.peek()!r}")
    return value


def parse_scalar(text: str) -> GaussianRational:
    """Parse a standalone Gaussian rational such as ``-1/2`` or ``(1+2*i)``."""
    value = parse_poly(text)
    if not value.is_constant():
        raise ParseError(f"{text!r} is not a scalar")
    return value.constant_value()
