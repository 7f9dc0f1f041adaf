"""Exact rational functions over a coordinate chart.

The coefficient field for everything else in this package: fractions of
multivariate polynomials in the chart coordinates, with rational-number
coefficients and a canonical representation, so equality is literal
comparison and printing is deterministic.

Canonical form: numerator and denominator coprime, denominator monic under
graded-lexicographic order (total degree first, ties broken
lexicographically with the first coordinate biggest).

The canonical form of a rational function is unique, so any route that
reaches a coprime pair with a monic denominator gives the same bytes as the
full reduction. Arithmetic therefore runs a gcd only where coprimality is
not already known:

- ``_pgcd`` returns the monic gcd with both cofactors, so no division
  follows it. A constant operand gives 1, a single-term operand the monic
  monomial of least exponents, equal operands the monic operand. Other
  operands, denominators cleared, go to GCDHEU (Char, Geddes and Gonnet,
  1989): variables are set to integers one at a time and the gcd of the
  images is interpolated back. A candidate counts only once exact trial
  division over the integers shows it divides both operands, which also
  yields the cofactors; as every evaluation point exceeds twice the smaller
  coefficient norm, it is then the gcd itself. Where six points fail or the
  images grow too large, the primitive PRS (Brown, 1971) answers instead.
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
  left is coprime and needs only its leading coefficient normalised.
- Powers of a coprime pair stay coprime, so ``**`` raises numerator and
  denominator separately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import add, sub
from typing import Callable, Iterator

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# A polynomial is a dict mapping exponent tuples to nonzero Fractions.
# All tuples in one dict have the chart's length. {} is the zero polynomial.

_F0 = Fraction(0)
_F1 = Fraction(1)


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


def _padd(a: dict, b: dict) -> dict:
    r = dict(a)
    for m, c in b.items():
        s = r.get(m, _F0) + c
        if s:
            r[m] = s
        else:
            r.pop(m, None)
    return r


def _pneg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _psub(a: dict, b: dict) -> dict:
    return _padd(a, _pneg(b))


def _pmul(a: dict, b: dict) -> dict:
    r: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = r.get(m, _F0) + ca * cb
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return r


def _pscale(a: dict, c: Fraction) -> dict:
    if not c:
        return {}
    return {m: q * c for m, q in a.items()}


def _pmonic(p: dict) -> dict:
    if not p:
        return p
    lc = p[_plead(p)]
    if lc == 1:
        return dict(p)
    return {m: c / lc for m, c in p.items()}


def _pvars(p: dict) -> set:
    return {i for m in p for i, e in enumerate(m) if e}


def _pdeg_in(p: dict, v: int) -> int:
    return max((m[v] for m in p), default=0)


def _pdiv_exact(a: dict, b: dict) -> dict:
    """Exact quotient a/b. Internal: callers guarantee divisibility."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q: dict = {}
    r = dict(a)
    lb = _plead(b)
    cb = b[lb]
    while r:
        lr = _plead(r)
        m = tuple(x - y for x, y in zip(lr, lb))
        if any(e < 0 for e in m):
            raise ArithmeticError("inexact polynomial division")
        cq = r[lr] / cb
        q[m] = cq
        for mb, c in b.items():
            mm = tuple(x + y for x, y in zip(m, mb))
            s = r.get(mm, _F0) - cq * c
            if s:
                r[mm] = s
            else:
                r.pop(mm, None)
    return q


def _split_var(p: dict, v: int) -> dict:
    """View p as a univariate polynomial in coordinate v: exponent -> poly."""
    out: dict = {}
    for m, c in p.items():
        mm = m[:v] + (0,) + m[v + 1 :]
        out.setdefault(m[v], {})[mm] = c
    return out


def _is_const(p: dict) -> bool:
    """True for a nonzero constant; among monic polynomials, only for 1."""
    return len(p) == 1 and not any(next(iter(p)))


def _content(p: dict, v: int) -> dict:
    cont: dict = {}
    for q in _split_var(p, v).values():
        cont = _prs(cont, q)
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
        r = _psub(_pmul(lb, r), _pmul(lr, shift))
    return r


def _prs(a: dict, b: dict) -> dict:
    """Monic gcd of two polynomials by the primitive PRS (Brown, 1971)."""
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    for p in (a, b):
        if _is_const(p):
            return {next(iter(p)): _F1}
    if len(a) == 1 or len(b) == 1:
        # a monomial divides a polynomial iff it divides every term
        return {tuple(map(min, *a, *b)): _F1}
    if a == b:
        return _pmonic(a)
    v = max(_pvars(a) | _pvars(b))
    da, db = _pdeg_in(a, v), _pdeg_in(b, v)
    if da == 0 or db == 0:
        ca = a if da == 0 else _content(a, v)
        cb = b if db == 0 else _content(b, v)
        return _prs(ca, cb)
    ca, cb = _content(a, v), _content(b, v)
    c = _prs(ca, cb)
    big = _pdiv_exact(a, ca)
    small = _pdiv_exact(b, cb)
    if _pdeg_in(big, v) < _pdeg_in(small, v):
        big, small = small, big
    while True:
        r = _prem(big, small, v)
        if not r:
            g = small
            break
        if _pdeg_in(r, v) == 0:
            return _pmonic(c)
        big, small = small, _pdiv_exact(r, _content(r, v))
    return _pmonic(_pmul(c, g))


# GCDHEU works on polynomial dicts with int coefficients. It tries this many
# points per variable and gives up before an image passes _HEU_BITS bits: each
# variable set multiplies the size by its degree, so (x1*x2*x3*x4)^40 + x1 is
# left to the PRS, while dense pairs with 12-digit coefficients need 2^17.
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
    vs = _pvars(f) | _pvars(g)
    if not vs:
        ((z, a),), (b,) = f.items(), g.values()
        h = gcd(a, b)
        return {z: h}, {z: a // h}, {z: b // h}
    v = max(vs)
    cont = gcd(*f.values(), *g.values())
    if cont > 1:
        f, g = ({m: c // cont for m, c in p.items()} for p in (f, g))
    x = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    deg = max(_pdeg_in(f, v), _pdeg_in(g, v))
    for _ in range(_HEU_POINTS):
        if x.bit_length() * deg > _HEU_BITS:
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


def _zclear(p: dict) -> tuple[dict, Fraction]:
    """(P, k) with p = k*P and P an integer polynomial."""
    den = lcm(*(c.denominator for c in p.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in p.items()}, Fraction(1, den)


def _pgcd(a: dict, b: dict) -> tuple[dict, dict, dict]:
    """(g, a/g, b/g) for the monic gcd g of two polynomials, not both zero:
    trivial operands directly, then GCDHEU, then the PRS if that gives up."""
    if not a or not b:
        p = a or b
        unit = {(0,) * len(_plead(p)): p[_plead(p)]}
        return _pmonic(p), a and unit, b and unit
    if _is_const(a) or _is_const(b):
        return {(0,) * len(next(iter(a))): _F1}, a, b
    if len(a) == 1 or len(b) == 1:
        # a monomial divides a polynomial iff it divides every term
        lo = tuple(map(min, *a, *b))
        a, b = ({tuple(map(sub, m, lo)): c for m, c in p.items()} for p in (a, b))
        return {lo: _F1}, a, b
    one = (0,) * len(next(iter(a)))
    if a == b:
        unit = {one: a[_plead(a)]}
        return _pmonic(a), unit, unit
    (fa, ka), (fb, kb) = _zclear(a), _zclear(b)
    if (found := _heu(fa, fb)) is None:
        g = _prs(a, b)
        return g, _pdiv_exact(a, g), _pdiv_exact(b, g)
    h, ca, cb = found
    if _is_const(h):
        return {one: _F1}, a, b
    lc = h[_plead(h)]
    ka, kb = ka * lc, kb * lc
    g = {m: Fraction(c, lc) for m, c in h.items()}
    return g, {m: ka * c for m, c in ca.items()}, {m: kb * c for m, c in cb.items()}


def _monic_den(num: dict, den: dict) -> tuple[dict, dict]:
    """Scale a coprime pair so the denominator is monic."""
    lc = den[_plead(den)]
    if lc == 1:
        return num, den
    inv = 1 / lc
    return _pscale(num, inv), _pscale(den, inv)


class ScalarField:
    """One exact rational function; immutable, canonical on construction."""

    __slots__ = ("chart", "num", "den")

    def __init__(self, chart: BaseChart, num: dict, den: dict | None = None):
        if den is None:
            den = {(0,) * chart.m: _F1}
        if not den:
            raise ZeroDivisionError("scalar division by zero")
        if not num:
            den = {(0,) * chart.m: _F1}
        else:
            num, den = _monic_den(*_pgcd(num, den)[1:])
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _canonical(chart: BaseChart, num: dict, den: dict) -> "ScalarField":
        """Wrap a pair already in canonical form, without checking it."""
        f = ScalarField.__new__(ScalarField)
        object.__setattr__(f, "chart", chart)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    # construction helpers

    @staticmethod
    def const(chart: BaseChart, value) -> "ScalarField":
        q = Fraction(value)
        return ScalarField(chart, {(0,) * chart.m: q} if q else {})

    @staticmethod
    def coord(chart: BaseChart, name: str) -> "ScalarField":
        i = chart.axis(name)
        mono = tuple(1 if j == i else 0 for j in range(chart.m))
        return ScalarField(chart, {mono: _F1})

    @staticmethod
    def zero(chart: BaseChart) -> "ScalarField":
        return ScalarField(chart, {})

    @staticmethod
    def one(chart: BaseChart) -> "ScalarField":
        return ScalarField.const(chart, 1)

    # predicates and views

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_polynomial(self) -> bool:
        return len(self.den) == 1 and not any(_plead(self.den))

    def constant_value(self) -> Fraction:
        """The value of a constant; raises if not constant."""
        if self.is_zero:
            return _F0
        if self.is_polynomial and len(self.num) == 1 and not any(_plead(self.num)):
            return self.num[_plead(self.num)]
        raise ValueError(f"not a constant: {self}")

    def total_degree(self) -> int:
        """Total degree of a polynomial value; -1 for zero."""
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: {self}")
        if self.is_zero:
            return -1
        return max(sum(m) for m in self.num)

    def monomials(self) -> Iterator[tuple[tuple, Fraction]]:
        """Numerator terms of a polynomial value, descending grlex."""
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: {self}")
        for m in sorted(self.num, key=_grlex, reverse=True):
            yield m, self.num[m]

    # arithmetic

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.chart != self.chart:
                raise ValueError("chart mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return ScalarField.const(self.chart, other)
        return None

    def _plus(self, c: dict, d: dict) -> "ScalarField":
        """self + c/d for a canonical pair c/d, by Henrici's method."""
        a, b = self.num, self.den
        if not c:
            return self
        if not a:
            return ScalarField._canonical(self.chart, c, d)
        if b == d:
            g, t, den = b, _padd(a, c), b
        else:
            g, bg, dg = _pgcd(b, d)
            t = _padd(_pmul(a, dg), _pmul(c, bg))
            den = _pmul(b, dg)
        if not t:
            return ScalarField.zero(self.chart)
        # a, c are coprime to b, d, so t can share a factor with g only
        q, t, _ = _pgcd(t, g)
        den = den if _is_const(q) else _pdiv_exact(den, q)
        return ScalarField._canonical(self.chart, t, den)

    def _times(self, c: dict, d: dict) -> "ScalarField":
        """self * c/d for a coprime pair c/d whose d need not be monic."""
        a, b = self.num, self.den
        if not a or not c:
            return ScalarField.zero(self.chart)
        _, a, d = _pgcd(a, d)
        _, c, b = _pgcd(c, b)
        num, den = _monic_den(_pmul(a, c), _pmul(b, d))
        return ScalarField._canonical(self.chart, num, den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o.num, o.den)

    __radd__ = __add__

    def __neg__(self):
        return ScalarField._canonical(self.chart, _pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(_pneg(o.num), o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(_pneg(self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return self._times(o.den, o.num)

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
        one = {(0,) * self.chart.m: _F1}
        num = den = one
        for _ in range(k):
            num = _pmul(num, self.num)
        if num and not _is_const(self.den):
            for _ in range(k):
                den = _pmul(den, self.den)
        return ScalarField._canonical(self.chart, num, den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarField.const(self.chart, other)
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash(
            (
                self.chart,
                frozenset(self.num.items()),
                frozenset(self.den.items()),
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
            r: dict = {}
            for m, c in p.items():
                if m[v]:
                    mm = m[:v] + (m[v] - 1,) + m[v + 1 :]
                    s = r.get(mm, _F0) + c * m[v]
                    if s:
                        r[mm] = s
                    else:
                        r.pop(mm, None)
            return r

        a, b = self.num, self.den
        if _is_const(b):
            return ScalarField._canonical(self.chart, d(a), b)
        # With g = gcd(b, b'), b = g*h and b' = g*e for coprime h, e, the
        # quotient rule gives t/(b*h) with t = a'*h - a*e. As a and e are
        # coprime to h, only gcd(t, g) can be left to cancel.
        db = d(b)
        g, h, e = _pgcd(b, db)
        t = _psub(_pmul(d(a), h), _pmul(a, e))
        if not t:
            return ScalarField.zero(self.chart)
        q, t, _ = _pgcd(t, g)
        den = _pmul(b, h) if _is_const(q) else _pdiv_exact(_pmul(b, h), q)
        return ScalarField._canonical(self.chart, t, den)

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

_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[-+*^()/]|\S")
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


def _term_count(value) -> int:
    """Terms of a parsed value, summed over the coefficients of a super one."""
    if isinstance(value, ScalarField):
        return len(value.num)
    return sum(len(c.num) for c in value.terms.values())


def _tokenize(text: str):
    toks = []
    line = 1
    start = 0
    for match in re.finditer(r"\S+|\n", text):
        if match.group() == "\n":
            line += 1
            start = match.end()
            continue
        for t in _TOKEN.finditer(match.group()):
            toks.append((t.group(), line, match.start() + t.start() - start + 1))
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
    """

    def __init__(self, text: str, resolve: Callable, const: Callable):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.resolve = resolve
        self.const = const
        if not self.toks:
            raise ParseError("empty expression", 1, 1)

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos][0]
        return None

    def loc(self):
        if self.pos < len(self.toks):
            _, line, col = self.toks[self.pos]
        else:
            _, line, col = self.toks[-1]
        return line, col

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ParseError(message, *self.loc())

    def bounded(self, value, line: int, col: int):
        if _term_count(value) > _MAX_TERMS:
            raise ParseError(f"expression has more than {_MAX_TERMS} terms", line, col)
        return value

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            if self.peek() == "/":
                self.fail("'/' is only allowed in rational literals")
            self.fail(f"unexpected {self.peek()!r}")
        return value

    def expr(self):
        negate = False
        if self.peek() == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op, line, col = self.take()
            negate = False
            if self.peek() == "-":
                self.take()
                negate = True
            rhs = self.term()
            if negate:
                rhs = -rhs
            value = self.bounded(value + rhs if op == "+" else value - rhs, line, col)
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            _, line, col = self.take()
            value = self.bounded(value * self.factor(), line, col)
        return value

    def factor(self):
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
            n = _term_count(value)
            if n and comb(n + exponent - 1, exponent) > _MAX_TERMS:
                raise ParseError(f"power has more than {_MAX_TERMS} terms", line, col)
            value = value ** exponent
        return value

    def atom(self):
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
            numerator = _read_int(tok, line, col)
            if self.peek() == "/":
                self.take()
                if self.peek() is None or not self.peek().isdigit():
                    self.fail("expected a positive integer after '/'")
                dtok, dline, dcol = self.take()
                denominator = _read_int(dtok, dline, dcol)
                if denominator == 0:
                    raise ParseError("zero denominator", dline, dcol)
                return self.const(Fraction(numerator, denominator))
            return self.const(Fraction(numerator))
        if _IDENT.match(tok):
            return self.resolve(tok, line, col)
        raise ParseError(f"unexpected {tok!r}", line, col)


def parse_expression(text: str, resolve: Callable, const: Callable):
    """Parse under the shared grammar with caller-supplied atom semantics."""
    return _Parser(text, resolve, const).parse()


def parse_scalar(text: str, chart: BaseChart) -> ScalarField:
    """Parse an expression in the chart coordinates to canonical form."""

    def resolve(name: str, line: int, col: int) -> ScalarField:
        if name not in chart.names:
            raise ParseError(f"unknown identifier {name!r}", line, col)
        return ScalarField.coord(chart, name)

    return parse_expression(text, resolve, lambda q: ScalarField.const(chart, q))

