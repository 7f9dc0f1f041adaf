"""Exact rational functions over a coordinate chart.

The coefficient field for everything else in this package: fractions of
multivariate polynomials in the chart coordinates, with rational-number
coefficients and a canonical representation, so equality is literal
comparison and printing is deterministic.

Canonical form: a value is ``k*N/D`` for a rational ``k`` and integer
polynomials ``N`` and ``D`` that are coprime and primitive (the gcd of the
coefficients of each is 1), each with a positive leading coefficient under
graded-lexicographic order (total degree first, ties broken
lexicographically with the first coordinate biggest). Zero is ``0*0/1``.
The form is unique: over Q the coprime pair is fixed up to constant
factors, being primitive leaves only a sign for each, the leading
coefficients fix the signs, and ``k`` is then the ratio of the value to
``N/D``. ``k`` is an ``int`` when whole, so integer polynomials never build
a ``Fraction``. The ``num`` and ``den`` views give the printed form,
``(k*N/c)/(D/c)`` with ``c`` the leading coefficient of ``D``.

Polynomial arithmetic is therefore integer arithmetic. By Gauss's lemma a
product of primitive polynomials is primitive, and leading coefficients
multiply, so products and powers of canonical factors need no
normalisation; sums and derivatives fold the integer content of the result
into ``k``. The canonical form of a rational function is unique, so any
route that reaches a canonical triple gives the same bytes as the full
reduction. Arithmetic therefore runs a gcd only where coprimality is not
already known:

- ``_pgcd`` returns the primitive gcd with both cofactors, so no division
  follows it. A constant operand gives 1, a single-term operand the
  monomial of least exponents, equal operands the primitive part. Other
  operands go to GCDHEU (Char, Geddes and Gonnet, 1989): variables are set
  to integers one at a time and the gcd of the images is interpolated back.
  A candidate counts only once exact trial division over the integers shows
  it divides both operands, which also yields the cofactors; as every
  evaluation point exceeds twice the smaller coefficient norm, it is then
  the gcd itself. Where the images would grow too large, judged before
  each evaluation from the point and the degree of every variable, or six
  points fail, the primitive PRS (Brown, 1971) answers instead.
- A constant denominator is only scaled; its gcd with anything is 1.
- ``partial`` of ``a/b`` takes ``g = gcd(b, b')`` with ``b = g*h`` and
  ``b' = g*e``: the quotient rule gives ``(a'*h - a*e) / (b*h)``, where
  again only a factor of ``g`` can cancel, in place of a gcd against
  ``b**2``. With a constant denominator it differentiates the numerator.
- Sums use Henrici's method (Knuth, TAOCP vol. 2, section 4.5.1): with
  ``g = gcd(b, d)``, ``a/b + c/d`` is ``t / (b*(d/g))`` for
  ``t = a*(d/g) + c*(b/g)``, and only ``gcd(t, g)`` can be left to cancel.
  Equal denominators are never squared, and coprime ones need no further gcd.
- Products cancel ``gcd(a, d)`` and ``gcd(c, b)`` across first; what is
  left is canonical as it stands.
- Powers of a coprime pair stay coprime, so ``**`` raises numerator and
  denominator separately.

The expression parser needs none of this: input has no quotients, so it
folds plain polynomial dicts with rational coefficients, in one token pass,
and the caller canonicalises each parsed value once (``parse_scalar`` with
one ScalarField, ``superalg.parse_super`` with one per generator monomial).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import comb, gcd, isqrt, lcm
from operator import add, sub
from typing import Callable

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# A polynomial is a dict mapping exponent tuples to nonzero ints. All tuples
# in one dict have the chart's length. {} is the zero polynomial. A rational
# number is an int or a Fraction.


class ParseError(ValueError):
    """Syntax or name error in the expression language, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class BaseChart:
    """Ordered tuple of base coordinate names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.names, list):
            object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("chart needs at least one coordinate")
        seen = set()
        for name in self.names:
            if not _IDENT.match(name):
                raise ValueError(f"bad coordinate name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate coordinate name {name!r}")
            seen.add(name)

    @property
    def m(self) -> int:
        return len(self.names)

    def axis(self, name: str) -> int:
        """0-based position of a coordinate name."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"{name!r} is not a chart coordinate") from None


def _grlex(mono: tuple) -> tuple:
    return (sum(mono), mono)


def _plead(p: dict) -> tuple:
    return max(p, key=_grlex)


def _plin(u: int, a: dict, w: int, b: dict) -> dict:
    """u*a + w*b for integers u, w."""
    r = dict(a) if u == 1 else {m: u * c for m, c in a.items()}
    for m, c in b.items():
        s = r.get(m, 0) + w * c
        if s:
            r[m] = s
        else:
            r.pop(m, None)
    return r


def _pmul(a: dict, b: dict) -> dict:
    r: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            s = r.get(m, 0) + ca * cb
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return r


def _zprim(p: dict) -> tuple[int, dict]:
    """(c, P) with p = c*P for a nonzero p, P primitive with a positive
    leading coefficient."""
    c = gcd(*p.values())
    if p[_plead(p)] < 0:
        c = -c
    return c, p if c == 1 else {m: v // c for m, v in p.items()}


def _rat(n: int, d: int):
    """n/d as an int when d divides n, else as a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


def _zsplit(p: dict) -> tuple:
    """(k, P) with p = k*P for a nonzero polynomial with int or Fraction
    coefficients, k rational and P as in _zprim."""
    if len(p) == 1:
        ((m, c),) = p.items()
        return c.numerator if c.denominator == 1 else c, {m: 1}
    den = lcm(*(c.denominator for c in p.values()))
    c, q = _zprim({m: c.numerator * (den // c.denominator) for m, c in p.items()})
    return _rat(c, den), q


def _pdeg_in(p: dict, v: int) -> int:
    return max((m[v] for m in p), default=0)


def _split_var(p: dict, v: int) -> dict:
    """View p as a univariate polynomial in coordinate v: exponent -> poly."""
    out: dict = {}
    for m, c in p.items():
        mm = m[:v] + (0,) + m[v + 1 :]
        out.setdefault(m[v], {})[mm] = c
    return out


def _is_const(p: dict) -> bool:
    """True for a nonzero constant; among primitive polynomials, only for 1."""
    return len(p) == 1 and not any(next(iter(p)))


def _content(p: dict, v: int) -> dict:
    cont: dict = {}
    for q in _split_var(p, v).values():
        cont = _pgcd(cont, q)[0]
        if _is_const(cont):
            break
    return cont


def _prem(a: dict, b: dict, v: int) -> dict:
    """Pseudo-remainder of a by b in the variable v (content noise allowed)."""
    db = _pdeg_in(b, v)
    sb = _split_var(b, v)
    lb = sb[db]
    r = dict(a)
    while r and _pdeg_in(r, v) >= db:
        dr = _pdeg_in(r, v)
        lr = _split_var(r, v)[dr]
        # r <- lb*r - lr * x_v^(dr-db) * b ; kills the degree-dr head.
        shift = {m[:v] + (m[v] + dr - db,) + m[v + 1 :]: c for m, c in b.items()}
        r = _plin(1, _pmul(lb, r), -1, _pmul(lr, shift))
    return r


def _prs(a: dict, b: dict) -> dict:
    """The gcd of two polynomials that _pgcd does not answer directly, as in
    _pgcd, by the primitive PRS (Brown, 1971). Contents in v and
    pseudo-remainders divide exactly over the integers, as the contents are
    primitive."""
    v = max(i for i, e in enumerate(map(max, zip(*a, *b))) if e)
    da, db = _pdeg_in(a, v), _pdeg_in(b, v)
    if da == 0 or db == 0:
        ca = a if da == 0 else _content(a, v)
        cb = b if db == 0 else _content(b, v)
        return _pgcd(ca, cb)[0]
    ca, cb = _content(a, v), _content(b, v)
    c = _pgcd(ca, cb)[0]
    big = _zdiv(a, ca)
    small = _zdiv(b, cb)
    if _pdeg_in(big, v) < _pdeg_in(small, v):
        big, small = small, big
    while True:
        r = _prem(big, small, v)
        if not r:
            break
        if _pdeg_in(r, v) == 0:
            return c
        big, small = small, _zprim(_zdiv(r, _content(r, v)))[1]
    return _zprim(_pmul(c, small))[1]


# GCDHEU tries this many points per variable and gives up before an image
# passes _HEU_BITS bits: each variable set multiplies the size by its degree,
# so (x1*x2*x3*x4)^15 + x1 is left to the PRS, while dense pairs with 12-digit
# coefficients need 2^17.
_HEU_POINTS = 6
_HEU_BITS = 2**18


def _zdiv(a: dict, b: dict) -> dict | None:
    """Exact quotient a/b over the integers, or None if b does not divide a.
    Plain tuple order (lex) picks leading terms: any order gives the same."""
    q: dict = {}
    r = dict(a)
    lb = max(b)
    cb = b[lb]
    while r:
        lr = max(r)
        m = tuple(map(sub, lr, lb))
        cq, rem = divmod(r[lr], cb)
        if rem or min(m) < 0:
            return None
        q[m] = cq
        for mb, c in b.items():
            mm = tuple(map(add, m, mb))
            s = r.get(mm, 0) - cq * c
            if s:
                r[mm] = s
            else:
                r.pop(mm, None)
    return q


def _zeval(p: dict, v: int, x: int) -> dict:
    """p with x_v set to the integer x."""
    out: dict = {}
    for m, c in p.items():
        mm = m[:v] + (0,) + m[v + 1 :]
        out[mm] = out.get(mm, 0) + c * x ** m[v]
    return {m: c for m, c in out.items() if c}


def _zinterp(p: dict, v: int, x: int) -> dict:
    """The polynomial with coefficients in [-x/2, x/2) whose value at
    x_v = x is p: the balanced base-x digits of each coefficient."""
    out: dict = {}
    half = x // 2
    for m, c in p.items():
        i = 0
        while c:
            d = (c + half) % x - half
            if d:
                out[m[:v] + (i,) + m[v + 1 :]] = d
            c, i = (c - d) // x, i + 1
    return out


def _heu(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """(h, f/h, g/h) for h = gcd(f, g) of nonzero integer polynomials, or
    None when the points or _HEU_BITS run out. The last variable is set to x
    and the gcd of the images, taken recursively, interpolated back; the
    module docstring says why a candidate dividing f and g is the gcd."""
    degs = list(map(max, zip(*f, *g)))
    if not any(degs):
        ((z, a),), (b,) = f.items(), g.values()
        h = gcd(a, b)
        return {z: h}, {z: a // h}, {z: b // h}
    v = max(i for i, e in enumerate(degs) if e)
    cont = gcd(*f.values(), *g.values())
    if cont > 1:
        f, g = ({m: c // cont for m, c in p.items()} for p in (f, g))
    x = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    growth = 1
    for e in degs:
        growth *= e or 1
    for _ in range(_HEU_POINTS):
        # the last image has about x's bits times the degree of every variable
        if x.bit_length() * growth > _HEU_BITS:
            return None
        ff, gg = _zeval(f, v, x), _zeval(g, v, x)
        if ff and gg and (images := _heu(ff, gg)) is not None:
            h = _zinterp(images[0], v, x)
            hc = gcd(*h.values())
            h = {m: c // hc for m, c in h.items()}
            if _is_const(h):  # 1 or -1, which divides anything
                return {next(iter(h)): cont}, f, g
            cf = _zdiv(f, h)
            cg = None if cf is None else _zdiv(g, h)
            if cg is not None:
                return {m: c * cont for m, c in h.items()}, cf, cg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _pgcd(a: dict, b: dict) -> tuple[dict, dict, dict]:
    """(g, a/g, b/g) for the gcd g of two integer polynomials, not both
    zero, taken primitive with a positive leading coefficient, so that the
    cofactors are integer polynomials, primitive with positive leading
    coefficients where a and b are: trivial operands directly, then GCDHEU,
    then the PRS if that gives up."""
    one = (0,) * len(next(iter(a or b)))
    if not a or not b:
        c, g = _zprim(a or b)
        unit = {one: c}
        return g, a and unit, b and unit
    if _is_const(a) or _is_const(b):
        return {one: 1}, a, b
    if len(a) == 1 or len(b) == 1:
        # a monomial divides a polynomial iff it divides every term
        lo = tuple(map(min, *a, *b))
        a, b = ({tuple(map(sub, m, lo)): c for m, c in p.items()} for p in (a, b))
        return {lo: 1}, a, b
    if a == b:
        c, g = _zprim(a)
        unit = {one: c}
        return g, unit, unit
    if (found := _heu(a, b)) is None:
        g = _prs(a, b)
        return g, _zdiv(a, g), _zdiv(b, g)
    h, ca, cb = found
    c, g = _zprim(h)
    if c != 1:
        ca, cb = ({m: c * v for m, v in p.items()} for p in (ca, cb))
    return g, ca, cb


class ScalarField:
    """One exact rational function; immutable, canonical on construction."""

    __slots__ = ("chart", "_k", "_n", "_d")

    def __init__(self, chart: BaseChart, num: dict, den: dict | None = None):
        """num and den map exponent tuples to ints or Fractions; zeros are dropped."""
        one = (0,) * chart.m
        if 0 in num.values():
            num = {m: c for m, c in num.items() if c}
        if den is not None:
            if 0 in den.values():
                den = {m: c for m, c in den.items() if c}
            if not den:
                raise ZeroDivisionError("scalar division by zero")
        if not num:
            k, num, den = 0, {}, {one: 1}
        else:
            k, num = _zsplit(num)
            if den is None:
                den = {one: 1}
            else:
                kd, den = _zsplit(den)
                _, num, den = _pgcd(num, den)
                k = _rat(k.numerator * kd.denominator, k.denominator * kd.numerator)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_n", num)
        object.__setattr__(self, "_d", den)

    @staticmethod
    def _canonical(chart: BaseChart, k, num: dict, den: dict) -> "ScalarField":
        """Wrap a triple already in canonical form, without checking it."""
        f = ScalarField.__new__(ScalarField)
        object.__setattr__(f, "chart", chart)
        object.__setattr__(f, "_k", k)
        object.__setattr__(f, "_n", num)
        object.__setattr__(f, "_d", den)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    # construction helpers

    @staticmethod
    def const(chart: BaseChart, value) -> "ScalarField":
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return ScalarField(chart, {(0,) * chart.m: q})

    @staticmethod
    def coord(chart: BaseChart, name: str) -> "ScalarField":
        i = chart.axis(name)
        mono = tuple(1 if j == i else 0 for j in range(chart.m))
        return ScalarField(chart, {mono: 1})

    @staticmethod
    @cache
    def zero(chart: BaseChart) -> "ScalarField":
        """The zero of the chart, one shared object: values are immutable."""
        return ScalarField(chart, {})

    @staticmethod
    @cache
    def one(chart: BaseChart) -> "ScalarField":
        """The one of the chart, one shared object."""
        return ScalarField.const(chart, 1)

    # predicates and views

    @property
    def num(self) -> dict:
        """Numerator with Fraction coefficients, over the monic ``den``."""
        q = Fraction(self._k, self._d[_plead(self._d)])
        return {m: q * c for m, c in self._n.items()}

    @property
    def den(self) -> dict:
        """Denominator with Fraction coefficients, monic in graded-lex order."""
        lc = self._d[_plead(self._d)]
        return {m: Fraction(c, lc) for m, c in self._d.items()}

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_polynomial(self) -> bool:
        return _is_const(self._d)

    def total_degree(self) -> int:
        """Total degree of a polynomial value; -1 for zero."""
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: {self}")
        if self.is_zero:
            return -1
        return max(sum(m) for m in self._n)

    # arithmetic

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.chart != self.chart:
                raise ValueError("chart mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return ScalarField.const(self.chart, other)
        return None

    def _plus(self, k, c: dict, d: dict) -> "ScalarField":
        """self + k*c/d for a canonical triple, by Henrici's method."""
        a, b = self._n, self._d
        if not c:
            return self
        if not a:
            return ScalarField._canonical(self.chart, k, c, d)
        # self._k*a + k*c = (n/l)*(u*a + w*c) with integers n, l, u, w
        (n1, d1), (n2, d2) = (self._k.numerator, self._k.denominator), (k.numerator, k.denominator)
        n, l = gcd(n1, n2), lcm(d1, d2)
        u, w = n1 // n * (l // d1), n2 // n * (l // d2)
        if b == d:
            g, t, den = b, _plin(u, a, w, c), b
        else:
            g, bg, dg = _pgcd(b, d)
            t = _plin(u, _pmul(a, dg), w, _pmul(c, bg))
            den = _pmul(b, dg)
        if not t:
            return ScalarField.zero(self.chart)
        ct, t = _zprim(t)
        # a, c are coprime to b, d, so t can share a factor with g only
        q, t, _ = _pgcd(t, g)
        den = den if _is_const(q) else _zdiv(den, q)
        return ScalarField._canonical(self.chart, _rat(n * ct, l), t, den)

    def _times(self, k, c: dict, d: dict) -> "ScalarField":
        """self * k*c/d for coprime primitive c, d with positive leading
        coefficients."""
        a, b = self._n, self._d
        if not a or not c:
            return ScalarField.zero(self.chart)
        _, a, d = _pgcd(a, d)
        _, c, b = _pgcd(c, b)
        return ScalarField._canonical(self.chart, self._k * k, _pmul(a, c), _pmul(b, d))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o._k, o._n, o._d)

    __radd__ = __add__

    def __neg__(self):
        return ScalarField._canonical(self.chart, -self._k, self._n, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(-o._k, o._n, o._d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(-self._k, self._n, self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o._k, o._n, o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return self._times(_rat(o._k.denominator, o._k.numerator), o._d, o._n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return ScalarField.one(self.chart) / self ** (-k)
        one = {(0,) * self.chart.m: 1}
        num = den = one
        for _ in range(k):
            num = _pmul(num, self._n)
        if num and not _is_const(self._d):
            for _ in range(k):
                den = _pmul(den, self._d)
        return ScalarField._canonical(self.chart, self._k**k, num, den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarField.const(self.chart, other)
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (
            self.chart == other.chart
            and self._k == other._k
            and self._n == other._n
            and self._d == other._d
        )

    def __hash__(self):
        return hash(
            (
                self.chart,
                self._k,
                frozenset(self._n.items()),
                frozenset(self._d.items()),
            )
        )

    def __bool__(self):
        return not self.is_zero

    def partial(self, a) -> "ScalarField":
        """Exact partial derivative; a is a 1-based index or coordinate name."""
        if isinstance(a, str):
            v = self.chart.axis(a)
        else:
            if not 1 <= a <= self.chart.m:
                raise IndexError(f"coordinate index {a} out of range")
            v = a - 1

        def d(p: dict) -> dict:
            # lowering the exponent of x_v is one-to-one on the terms it keeps
            return {m[:v] + (m[v] - 1,) + m[v + 1 :]: c * m[v] for m, c in p.items() if m[v]}

        k, a, b = self._k, self._n, self._d
        if _is_const(b):
            if not (t := d(a)):
                return ScalarField.zero(self.chart)
            ct, t = _zprim(t)
            return ScalarField._canonical(self.chart, k * ct, t, b)
        # With g = gcd(b, b'), b = g*h and b' = g*e for coprime h, e, the
        # quotient rule gives t/(b*h) with t = a'*h - a*e. As a and e are
        # coprime to h, only gcd(t, g) can be left to cancel.
        g, h, e = _pgcd(b, d(b))
        t = _plin(1, _pmul(d(a), h), -1, _pmul(a, e))
        if not t:
            return ScalarField.zero(self.chart)
        ct, t = _zprim(t)
        q, t, _ = _pgcd(t, g)
        den = _pmul(b, h) if _is_const(q) else _zdiv(_pmul(b, h), q)
        return ScalarField._canonical(self.chart, k * ct, t, den)

    # printing

    def _poly_str(self, p: dict) -> str:
        if not p:
            return "0"
        pieces = []
        for m in sorted(p, key=_grlex, reverse=True):
            c = p[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.chart.names[i])
                elif e > 1:
                    factors.append(f"{self.chart.names[i]}^{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __str__(self):
        if self.is_polynomial:
            return self._poly_str(self.num)
        return f"({self._poly_str(self.num)})/({self._poly_str(self.den)})"

    def __repr__(self):
        return f"<ScalarField {self}>"


# expression parser, shared by the scalar and super layers

# One pass: a newline, or a token (identifier, integer, operator or any other
# non-space character); every other space separates tokens.
_TOKEN = re.compile(r"\n|[A-Za-z][A-Za-z0-9_]*|\d+|[-+*^()/]|\S")
# Each level of parentheses costs four Python frames in the parser, so this
# keeps well inside the default recursion limit.
_MAX_NESTING = 100
# Largest exponent after '^'. Powers are built by repeated multiplication, and
# (1 + x1)^1000 already takes seconds to parse and seconds more in every verb.
_MAX_EXPONENT = 100
# Most terms a parsed value may have. Bivector entries cost the most: on the
# plane with P 1 2 = (1 + x1 + x2)^6, 28 terms, relative-modular takes 0.2 s,
# and with ^7, 36 terms, 0.3 s.
_MAX_TERMS = 30


def _tokenize(text: str):
    """(token, line, column) triples; lines and columns count from 1."""
    toks, line, start = [], 1, 0
    for t in _TOKEN.finditer(text):
        tok = t.group()
        if tok == "\n":
            line += 1
            start = t.end()
        else:
            toks.append((tok, line, t.start() - start + 1))
    return toks


def _read_int(tok: str, line: int, col: int) -> int:
    try:
        return int(tok)
    except ValueError:
        # past Python's int-string digit limit, or a digit int() rejects
        raise ParseError(f"cannot read the {len(tok)}-character integer literal", line, col) from None


class _Parser:
    """Recursive descent over the shared grammar.

    expr   := ('-')? term (('+'|'-') ('-')? term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nonneg-int)?
    atom   := IDENT | INT | INT '/' POSINT | '(' expr ')'

    '/' only builds rational literals; quotients of polynomials are not
    part of the input language. Parentheses nest at most _MAX_NESTING deep,
    exponents are at most _MAX_EXPONENT, and every value has at most
    _MAX_TERMS terms; a power is refused before it is expanded when it could
    have more.

    Values are polynomials: dicts from a monomial key to a nonzero int or
    Fraction, {} for zero. Sums and differences go through _plin, products
    through the caller's ``mul``, and a power is that many products starting
    from the one, so ``^0`` gives the one. A value's term count is its
    length, the terms of its canonical form.
    """

    def __init__(self, text: str, resolve: Callable, one: tuple, mul: Callable):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.resolve = resolve
        self.one = one
        self.mul = mul
        if not self.toks:
            raise ParseError("empty expression", 1, 1)

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def loc(self):
        _, line, col = self.toks[min(self.pos, len(self.toks) - 1)]
        return line, col

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ParseError(message, *self.loc())

    def bounded(self, value: dict, line: int, col: int) -> dict:
        if len(value) > _MAX_TERMS:
            raise ParseError(f"expression has more than {_MAX_TERMS} terms", line, col)
        return value

    def parse(self) -> dict:
        value = self.expr()
        if self.peek() is not None:
            if self.peek() == "/":
                self.fail("'/' is only allowed in rational literals")
            self.fail(f"unexpected {self.peek()!r}")
        return value

    def expr(self) -> dict:
        # the first term is added to zero; a lone term is within the budget
        value, op, line, col = {}, "+", 1, 1
        while True:
            sign = 1 if op == "+" else -1
            if self.peek() == "-":
                self.take()
                sign = -sign
            value = self.bounded(_plin(1, value, sign, self.term()), line, col)
            if self.peek() not in ("+", "-"):
                return value
            op, line, col = self.take()

    def term(self) -> dict:
        value = self.factor()
        while self.peek() == "*":
            _, line, col = self.take()
            value = self.bounded(self.mul(value, self.factor()), line, col)
        return value

    def factor(self) -> dict:
        value = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() is None or not self.peek().isdigit():
                self.fail("expected a nonnegative integer exponent after '^'")
            tok, line, col = self.take()
            exponent = _read_int(tok, line, col)
            if exponent > _MAX_EXPONENT:
                raise ParseError(f"exponent larger than {_MAX_EXPONENT}", line, col)
            # n terms give at most C(n + k - 1, k) terms in the k-th power
            n = len(value)
            if n and comb(n + exponent - 1, exponent) > _MAX_TERMS:
                raise ParseError(f"power has more than {_MAX_TERMS} terms", line, col)
            value = reduce(self.mul, [value] * exponent, {self.one: 1})
        return value

    def atom(self) -> dict:
        if self.peek() is None:
            self.fail("unexpected end of expression")
        tok, line, col = self.take()
        if tok == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested more than {_MAX_NESTING} deep", line, col)
            self.depth += 1
            value = self.expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.take()
            self.depth -= 1
            return value
        if tok.isdigit():
            q = _read_int(tok, line, col)
            if self.peek() == "/":
                self.take()
                if self.peek() is None or not self.peek().isdigit():
                    self.fail("expected a positive integer after '/'")
                dtok, dline, dcol = self.take()
                denominator = _read_int(dtok, dline, dcol)
                if denominator == 0:
                    raise ParseError("zero denominator", dline, dcol)
                q = _rat(q, denominator)
            return {self.one: q} if q else {}
        if _IDENT.match(tok):
            return self.resolve(tok, line, col)
        raise ParseError(f"unexpected {tok!r}", line, col)


def parse_expression(text: str, resolve: Callable, one: tuple, mul: Callable = _pmul) -> dict:
    """Parse under the shared grammar to a polynomial dict. ``resolve(name,
    line, column)`` gives an identifier's value, ``one`` is the key of the
    constant monomial and ``mul`` multiplies two values; the default
    multiplies polynomials keyed by exponent tuples."""
    return _Parser(text, resolve, one, mul).parse()


def parse_scalar(text: str, chart: BaseChart) -> ScalarField:
    """Parse an expression in the chart coordinates to canonical form."""
    one = (0,) * chart.m

    def resolve(name: str, line: int, col: int) -> dict:
        if name not in chart.names:
            raise ParseError(f"unknown identifier {name!r}", line, col)
        i = chart.names.index(name)
        return {one[:i] + (1,) + one[i + 1 :]: 1}

    return ScalarField(chart, parse_expression(text, resolve, one))
