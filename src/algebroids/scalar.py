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
reduction.

Beside ``D`` a value carries a factor base of it: pairwise distinct
*certified* factors with multiplicities, and a rest, coprime to each of
them, for what no factor certifies. A primitive factor is certified when
some coordinate occurs in exactly one of its terms, as ``c*x_v``; that is
a look at exponent tuples, and it makes the factor irreducible (see
``_certified``), so every shift ``d + x_w`` passes and ``2*x2^2 - 3`` does
not. Two certified factors are equal or coprime, so ``gcd(a, f**e)`` for a
certified ``f`` is ``f**j`` for the largest ``j <= e`` that trial division
(``_zdiv``, after a comparison of values at one integer point) finds. A
rest meets a certified factor of another base by the same trial division,
which moves the factor out of it; it meets a numerator or another rest
through ``_pgcd``, unless the other side is certified, when the gcd is
that side or 1. Polynomials have the empty base. Arithmetic therefore runs
a gcd only where a rest is involved and coprimality is not already known:

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
- Products cancel ``gcd(a, d)`` and ``gcd(c, b)`` across first, by trial
  division against the factors of the other denominator; what is left is
  canonical as it stands, and the two bases merge, multiplicities adding.
- Sums use Henrici's method (Knuth, TAOCP vol. 2, section 4.5.1): with
  ``g = gcd(b, d)``, ``a/b + c/d`` is ``t / (b*(d/g))`` for
  ``t = a*(d/g) + c*(b/g)``, and only ``gcd(t, g)`` can be left to cancel.
  ``g`` is the shared certified factors at the lesser multiplicity times
  the gcd of the rests, and ``gcd(t, g)`` is a trial division by those
  factors. Equal denominators are never squared, and coprime ones need no
  further gcd.
- ``partial`` of ``a/b``, with ``b`` the product of the ``f**e`` and the
  rest ``u``, takes ``g = gcd(u, u')`` with ``u = g*h`` and ``u' = g*s``.
  For ``R`` the product of ``h`` and the factors involving ``x_v``, and
  ``S/R = s/h +`` the sum of ``e*f'/f``, the quotient rule gives
  ``(a'*R - a*S) / (b*R)``. No factor of ``R`` can cancel: only factors
  free of ``x_v``, by trial division, and ``gcd(t, g)``. With a constant
  denominator it differentiates the numerator.
- Powers of a coprime pair stay coprime, so ``**`` raises numerator and
  denominator separately, and multiplies the multiplicities.
- Sums of products (``sum_products``) are reduced once, not once per
  product. With every denominator constant, the integer numerators are
  multiplied and accumulated into one polynomial, the weights' denominators
  cleared by their lcm, and only its content is taken. Otherwise the
  common denominator holds each certified factor at its largest
  multiplicity and each rest, split by those factors, at its largest;
  products over the same denominator are summed first, each group is
  multiplied by what its denominator lacks, and only ``gcd(t, D)`` is left
  to cancel, by trial division and one gcd with the rests. A product with
  a rest among its factors is multiplied out first: a rest often cancels
  against another factor's numerator, where ``_pgcd`` finds equal operands.
  A single product is just the product.

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
from math import comb, gcd, isqrt, lcm, prod
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
# passes _HEU_BITS bits: each variable set multiplies the size by its lesser
# degree in the two operands, so (x1*x2*x3*x4)^15 + x1 is left to the PRS,
# while dense pairs with 12-digit coefficients need 2^17.
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
    df, dg = list(map(max, zip(*f))), list(map(max, zip(*g)))
    degs = list(map(max, df, dg))
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
    for ef, eg in zip(df, dg):
        growth *= min(ef, eg) or 1
    for _ in range(_HEU_POINTS):
        # the last image has about x's bits times the lesser degree of every
        # variable: x, like the gcd, follows the smaller operand
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


# A denominator is held as a factor base: a tuple of (f, e) pairs, each f a
# certified factor (see _certified) with multiplicity e, the factors pairwise
# distinct, and a rest u, primitive and coprime to every f, or None for 1.
# The denominator is the product of the f**e and u. Constants have the empty
# base ((), None).


@cache
def _units(m: int) -> tuple:
    """The exponent tuples of x_1, ..., x_m."""
    return tuple(tuple(int(i == v) for i in range(m)) for v in range(m))


def _certified(p: dict) -> bool:
    """True when some coordinate occurs in exactly one term of p, as c*x_v
    with c an integer. For a primitive p, that makes p irreducible: p is
    c*x_v + q with q free of x_v, a factor free of x_v would divide both c
    and q, and a primitive p has no such factor but 1."""
    for v, e in enumerate(_units(len(next(iter(p))))):
        if e in p and sum(1 for m in p if m[v]) == 1:
            return True
    return False


def _settle(fs: tuple, u: dict | None) -> tuple:
    """The base (fs, u) with a constant u dropped, and a certified u moved
    into the factors. The factor base of a primitive p is _settle((), p).
    Each operation settles the base of its result once it is whole, so no
    rest is ever certified; settling a rest while other rests are still to
    be multiplied in could leave a factor in two places."""
    if u is None or _is_const(u):
        return fs, None
    if _certified(u):
        return (*fs, (u, 1)), None
    return fs, u


def _rest(*ps) -> dict | None:
    """The product of the rests ps, None for 1."""
    u = None
    for p in ps:
        if p is not None and not _is_const(p):
            u = p if u is None else _pmul(u, p)
    return u


def _expand(one: tuple, fs: tuple, u: dict | None) -> dict:
    """The denominator that a factor base stands for."""
    p = u or {one: 1}
    for f, e in fs:
        for _ in range(e):
            p = _pmul(p, f)
    return p


def _mult(fs: tuple, f: dict) -> int:
    """The multiplicity of f among the factors fs, 0 if it is not one."""
    return next((e for g, e in fs if g == f), 0)


# Trial division first compares values at this point, with x_v set to
# 2**20 + v: f divides a only if f's value divides a's.
_POINT = tuple(2**20 + v for v in range(64))


def _value(p: dict) -> int:
    # a chart longer than _POINT leaves its last coordinates at 1
    return sum(c * prod(map(pow, _POINT, m)) for m, c in p.items())


def _strip(a: dict, av: int, f: dict, e: int) -> tuple[dict, int, int]:
    """(a/f**j, its value, j) for the largest j <= e with f**j dividing a,
    given the value av of a."""
    fv, j = _value(f), 0
    while j < e and (fv == 0 or av % fv == 0) and (q := _zdiv(a, f)) is not None:
        a, j = q, j + 1
        av = fv and av // fv
    return a, av, j


def _rest_gcd(a: dict, u: dict) -> tuple:
    """_pgcd(a, u) for a nonzero a and a rest u. When the primitive part p
    of a = c*p is certified, p is irreducible, so the gcd is p or 1, and a
    trial division tells which."""
    c = gcd(*a.values())
    p = a if c == 1 else {m: v // c for m, v in a.items()}
    if not _certified(p):
        return _pgcd(a, u)
    one = (0,) * len(next(iter(a)))
    if (q := _zdiv(u, p)) is None:
        return {one: 1}, a, u
    if p[_plead(p)] < 0:
        c, p, q = -c, {m: -v for m, v in p.items()}, {m: -v for m, v in q.items()}
    return p, {one: c}, q


def _cancel(a: dict, fs: tuple, u: dict | None) -> tuple:
    """(a/h, fs', u', changed) for h = gcd(a, D), with (fs', u') the base
    of D/h for the denominator D with base (fs, u). Certified factors are
    irreducible, so their part of h is found by trial division; only the
    rest's part may take a gcd."""
    if not fs and u is None:
        return a, fs, u, False
    kept, changed, av = [], False, fs and _value(a)
    for f, e in fs:
        a, av, j = _strip(a, av, f, e)
        if j < e:
            kept.append((f, e - j))
        changed = changed or j > 0
    if u is not None:
        g, a, u = _rest_gcd(a, u)
        if not _is_const(g):
            changed = True
            u = None if _is_const(u) else u
    return a, tuple(kept) if changed else fs, u, changed


def _split(fs: tuple, u: dict | None, other: tuple) -> tuple:
    """(fs', u') with the rest u split by each factor of the base ``other``
    that fs lacks: each such factor that divides u moves, with its
    multiplicity, from u to fs'. Afterwards every factor of both bases is
    coprime to u'."""
    if u is None or not other:
        return fs, u
    out, uv = list(fs), _value(u)
    for f, _ in other:
        if any(f == g for g, _ in fs):
            continue
        u, uv, j = _strip(u, uv, f, max(map(sum, u)))
        if j:
            out.append((f, j))
    if len(out) == len(fs):
        return fs, u
    return tuple(out), None if _is_const(u) else u


def _join(af: tuple, au: dict | None, bf: tuple, bu: dict | None) -> tuple:
    """The factor base of the product of two denominators, given theirs."""
    if not bf and bu is None:
        return af, au
    if not af and au is None:
        return bf, bu
    af, au = _split(af, au, bf)
    bf, bu = _split(bf, bu, af)
    return _merge(af, bf), _rest(au, bu)


def _merge(*bases: tuple) -> tuple:
    """The certified factors of a product of denominators, given those of
    each: multiplicities of equal factors add, and spent factors drop."""
    out: dict = {}
    for fs in bases:
        for f, e in fs:
            key = frozenset(f.items())
            out[key] = (f, out.get(key, (f, 0))[1] + e)
    return tuple((f, e) for f, e in out.values() if e)


class ScalarField:
    """One exact rational function; immutable, canonical on construction."""

    __slots__ = ("chart", "_k", "_n", "_d", "_f", "_u")

    def __init__(self, chart: BaseChart, num: dict, den: dict | None = None):
        """num and den map exponent tuples to ints or Fractions; zeros are dropped."""
        one = (0,) * chart.m
        fs, u = (), None
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
                fs, u = _settle((), den)
                num, fs, u, cut = _cancel(num, fs, u)
                if cut:
                    fs, u = _settle(fs, u)
                    den = _expand(one, fs, u)
                k = _rat(k.numerator * kd.denominator, k.denominator * kd.numerator)
        _set_chart(self, chart)
        _set_k(self, k)
        _set_n(self, num)
        _set_d(self, den)
        _set_f(self, fs)
        _set_u(self, u)

    @staticmethod
    def _canonical(chart: BaseChart, k, num: dict, den: dict, fs: tuple = (), u: dict | None = None) -> "ScalarField":
        """Wrap a triple already in canonical form, and the factor base
        (fs, u) of its denominator, without checking them."""
        f = ScalarField.__new__(ScalarField)
        _set_chart(f, chart)
        _set_k(f, k)
        _set_n(f, num)
        _set_d(f, den)
        _set_f(f, fs)
        _set_u(f, u)
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

    def _plus(self, k, o: "ScalarField") -> "ScalarField":
        """self + k*c/d for the canonical triple (_, c, d) of o, by
        Henrici's method over the two factor bases."""
        a, b, c, d = self._n, self._d, o._n, o._d
        if not c:
            return self
        if not a:
            return ScalarField._canonical(self.chart, k, c, d, o._f, o._u)
        # self._k*a + k*c = (n/l)*(u*a + w*c) with integers n, l, u, w
        (n1, d1), (n2, d2) = (self._k.numerator, self._k.denominator), (k.numerator, k.denominator)
        n, l = gcd(n1, n2), lcm(d1, d2)
        u, w = n1 // n * (l // d1), n2 // n * (l // d2)
        one = (0,) * self.chart.m
        if b == d:
            t = _plin(u, a, w, c)
            if not t:
                return ScalarField.zero(self.chart)
            ct, t = _zprim(t)
            # a, c are coprime to b, so t can share a factor with b only
            t, fs, r, cut = _cancel(t, self._f, self._u)
            if cut:
                fs, r = _settle(fs, r)
            den = _expand(one, fs, r) if cut else b
            return ScalarField._canonical(self.chart, _rat(n * ct, l), t, den, fs, r)
        bf, bu = _split(self._f, self._u, o._f)
        df, du = _split(o._f, o._u, bf)
        # g = gcd(b, d): the shared factors at the lesser multiplicity, and
        # the gcd of the rests
        gf = tuple((f, min(e, ed)) for f, e in bf if (ed := _mult(df, f)))
        gu = None
        if bu is not None and du is not None:
            gu, bu, du = _pgcd(bu, du)
            gu = None if _is_const(gu) else gu
        bg, dg = b, d
        if gf or gu is not None:
            bf, df = (tuple((f, e - _mult(gf, f)) for f, e in fs) for fs in (bf, df))
            bg, dg = _expand(one, bf, bu), _expand(one, df, du)
        # canonical a/b and c/d cancel only when b == d, handled above
        t = _plin(u, _pmul(a, dg), w, _pmul(c, bg))
        ct, t = _zprim(t)
        # a, c are coprime to b, d, so t can share a factor with g only; the
        # sum is t/q over (b/g)*(d/g)*(g/q) for q = gcd(t, g)
        t, gf, gu, cut = _cancel(t, gf, gu)
        fs, r = _settle(_merge(bf, df, gf), _rest(bu, du, gu))
        den = _expand(one, fs, r) if cut or not fs else _pmul(b, dg)
        return ScalarField._canonical(self.chart, _rat(n * ct, l), t, den, fs, r)

    def _times(self, k, c: dict, d: dict, df: tuple, du: dict | None) -> "ScalarField":
        """self * k*c/d for coprime primitive c, d with positive leading
        coefficients, and (df, du) the factor base of d."""
        a, b = self._n, self._d
        if not a or not c:
            return ScalarField.zero(self.chart)
        one = (0,) * self.chart.m
        a, df, du, cut = _cancel(a, df, du)
        if cut:
            d = _expand(one, df, du)
        c, bf, bu, cut = _cancel(c, self._f, self._u)
        if cut:
            b = _expand(one, bf, bu)
        fs, u = _settle(*_join(bf, bu, df, du))
        den = _pmul(b, d) if fs or u is None else u
        return ScalarField._canonical(self.chart, self._k * k, _pmul(a, c), den, fs, u)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o._k, o)

    __radd__ = __add__

    def __neg__(self):
        return ScalarField._canonical(self.chart, -self._k, self._n, self._d, self._f, self._u)

    def scaled(self, q) -> "ScalarField":
        """self times the nonzero rational q: only the content changes."""
        return ScalarField._canonical(self.chart, self._k * q, self._n, self._d, self._f, self._u)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(-o._k, o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(-self._k, self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o._k, o._n, o._d, o._f, o._u)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return self._times(_rat(o._k.denominator, o._k.numerator), o._d, o._n, *_settle((), o._n))

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
        fs, u = (), None
        for _ in range(k):
            num = _pmul(num, self._n)
        if k and not _is_const(self._d):
            for _ in range(k):
                den = _pmul(den, self._d)
            fs = tuple((f, e * k) for f, e in self._f)
            if self._u is not None:
                u = reduce(_pmul, [self._u] * k)
        return ScalarField._canonical(self.chart, self._k**k, num, den, fs, u)

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
        # b is the product of the f**e and the rest u. With u = g*h and
        # u' = g*s for g = gcd(u, u'), b'/b = s/h + the sum of e*f'/f, which
        # is S/R for R = h times the product of the factors f involving x_v.
        # The quotient rule gives t/(b*R) with t = a'*R - a*S. A factor f
        # involving x_v does not divide t, as it divides neither a nor e*f'
        # nor the other factors; nor does a factor of h. Only the factors
        # free of x_v, and gcd(t, g), can be left to cancel.
        one = (0,) * self.chart.m
        g = h = None
        r, s = {one: 1}, {}
        if (u := self._u) is not None:
            g, s, h = _rest_gcd(du, u) if (du := d(u)) else (u, s, r)
            g, r = None if _is_const(g) else g, h
        fs, free = [], []
        for f, e in self._f:
            if df := d(f):
                s = _plin(1, _pmul(s, f), e, _pmul(df, r))
                r = _pmul(r, f)
                fs.append((f, e + 1))
            else:
                free.append((f, e))
        t = _plin(1, _pmul(d(a), r), -1, _pmul(a, s))
        if not t:
            return ScalarField.zero(self.chart)
        ct, t = _zprim(t)
        # the rest u*h = h*h*g, over q = gcd(t, g)
        t, free, g, cut = _cancel(t, tuple(free), g)
        fs, u = _settle((*fs, *free), _rest(h, h, g))
        den = _expand(one, fs, u) if cut or not fs else _pmul(b, r)
        return ScalarField._canonical(self.chart, k * ct, t, den, fs, u)

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


# The slots' own setters: they bypass ScalarField.__setattr__, which refuses
# every write, and cost less than object.__setattr__.
_set_chart, _set_k, _set_n, _set_d, _set_f, _set_u = (
    ScalarField.__dict__[name].__set__ for name in ScalarField.__slots__
)


def _pmac(acc: dict, s: int, ps: list) -> None:
    """acc += s times the product of the polynomials ps, in place; terms
    that cancel stay in acc as zeros."""
    a = ps[0]
    for b in ps[1:-1]:
        a = _pmul(a, b)
    if len(ps) == 1:
        for m, c in a.items():
            acc[m] = acc.get(m, 0) + s * c
        return
    for ma, ca in a.items():
        ca *= s
        for mb, cb in ps[-1].items():
            m = tuple(map(add, ma, mb))
            acc[m] = acc.get(m, 0) + ca * cb


def sum_products(chart: BaseChart, products) -> ScalarField:
    """The sum of w*f*g*... over the products (w, f, g, ...), each w
    rational and each factor a ScalarField on the chart, reduced once over
    a common denominator D, as the module docstring describes."""
    live = []
    for w, *fs in products:
        rest = False
        for f in fs:
            if not f._n:
                break
            rest = rest or f._u is not None
        else:
            if w:
                live.append((w, [_product(fs)] if rest and len(fs) > 1 else fs))
    if len(live) == 1:
        w, fs = live[0]
        p = _product(fs)
        return p if w == 1 else p.scaled(w)
    const = True
    for i, (k, fs) in enumerate(live):
        for f in fs:
            k *= f._k
            const = const and not f._f and f._u is None
        live[i] = (k, fs)
    l = lcm(*(k.denominator for k, _ in live))
    if const:
        t: dict = {}
        for k, fs in live:
            _pmac(t, k.numerator * (l // k.denominator), [f._n for f in fs])
        return _reduced(chart, l, t, (), None)
    factors: dict = {}
    for _, fs in live:
        for f in fs:
            for p, _ in f._f:
                factors.setdefault(frozenset(p.items()), p)
    every = tuple((p, 1) for p in factors.values())
    # each factor's base, split by every certified factor, as (key, e) pairs
    # with the rests keyed alongside the certified factors
    rests: dict = {}
    bases: dict = {}
    groups: dict = {}
    for k, fs in live:
        mult: dict = {}
        for f in fs:
            base = bases.get(id(f))
            if base is None:
                split, u = _split(f._f, f._u, every)
                base = bases[id(f)] = [(frozenset(p.items()), e) for p, e in split]
                if u is not None:
                    key = frozenset(u.items())
                    rests[key] = u
                    base.append((key, 1))
            for key, e in base:
                mult[key] = mult.get(key, 0) + e
        t = groups.setdefault(frozenset(mult.items()), {})
        _pmac(t, k.numerator * (l // k.denominator), [f._n for f in fs])
    top: dict = {}
    for group in groups:
        for key, e in group:
            top[key] = max(top.get(key, 0), e)
    total: dict = {}
    for group, t in groups.items():
        lack = dict(top)
        for key, e in group:
            lack[key] -= e
        t = {m: c for m, c in t.items() if c}
        if t:
            _pmac(total, 1, [t, *(factors.get(key) or rests[key] for key, e in lack.items() for _ in range(e))])
    fs = tuple((p, top[key]) for key, p in factors.items())
    return _reduced(chart, l, total, fs, _rest(*(u for key, u in rests.items() for _ in range(top[key]))))


def _product(fs: list) -> ScalarField:
    """The canonical product of the ScalarFields fs."""
    p = fs[0]
    for f in fs[1:]:
        p = p._times(f._k, f._n, f._d, f._f, f._u)
    return p


def _reduced(chart: BaseChart, l: int, t: dict, fs: tuple, u: dict | None) -> ScalarField:
    """The canonical t/(l*D) for an integer polynomial t, possibly holding
    zeros, and the factor base (fs, u) of D."""
    t = {m: c for m, c in t.items() if c}
    if not t:
        return ScalarField.zero(chart)
    c, t = _zprim(t)
    t, fs, u, _ = _cancel(t, fs, u)
    fs, u = _settle(fs, u)
    return ScalarField._canonical(chart, _rat(c, l), t, _expand((0,) * chart.m, fs, u), fs, u)


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
