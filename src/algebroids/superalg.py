"""Supercommutative polynomial kernel over the scalar field.

Generators live in a table: odd names of degree 1 and even names of
degree 2, on top of a base chart whose coordinates have degree 0. Odd
monomials are stored with strictly increasing generator indices; any
reordering sign (the Koszul rule) is absorbed into the coefficient, so
equality is literal comparison of term dictionaries.

Odd derivatives are left derivatives throughout: d/dtheta kills terms
without theta and otherwise removes theta with the sign (-1)^(number of
odd factors standing before it).

The divergence of a vector field X with parity |X| is

    div(X) = sum_a d(X^{x_a})/dx_a + sum_q d(X^q)/dq
             - (-1)^{|X|} sum_theta d(X^theta)/dtheta

where q runs over the even degree-2 generators and theta over the odd
ones. The sign block is forced: degree-2 even generators must take the
same sign as the base coordinates or the commutator rule
div([X,Y]) = X(div Y) - (-1)^{|X||Y|} Y(div X) fails on mixed fields.

Two private builders make every term dict. ``_add_product`` lists the
products of two term dicts under the keys they land on, each product as a
weight and its two coefficients, and ``_sum_pending`` then sums every
key's list once with ``scalar.sum_products``: one reduction per
coefficient over a common denominator, not one addition per product.
Multiplying SuperPolys, applying a vector field, substitution and the
Poisson bracket and {H, H} of ``courant`` all use them, so a sum of
products builds one term dict, not a new SuperPoly or ScalarField per
product and per partial sum. The canonical form is unique, so the order
in which products are listed cannot change a coefficient.
``_monomial_sum`` builds a sum of coefficients times named generator
monomials directly, with no product at all: frame forms, the de Rham
field, Hamiltonians, substitution images and ``transport`` onto another
table are made with it.

``SuperPoly.subst_odd`` is the one odd-substitution kernel: an algebra
morphism that sends odd generators to given values, possibly on another
table over the same chart. ``algebroid.pullback`` and
``dirac.sharp_substitution`` are calls to it.

``parse_super`` builds no SuperPoly until the end: the shared parser folds
rationals on (odd, even, coordinate exponents) keys, and each (odd, even)
group then becomes one ScalarField coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .scalar import _IDENT, BaseChart, ParseError, ScalarField, parse_expression, sum_products


@dataclass(frozen=True)
class GeneratorTable:
    """Base chart plus the graded generators living over it."""

    chart: BaseChart
    odd: tuple[str, ...]
    even2: tuple[str, ...] = ()
    _roles: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.odd, list):
            object.__setattr__(self, "odd", tuple(self.odd))
        if isinstance(self.even2, list):
            object.__setattr__(self, "even2", tuple(self.even2))
        roles = {name: ("coord", a) for a, name in enumerate(self.chart.names)}
        for kind, names in (("odd", self.odd), ("even2", self.even2)):
            for i, name in enumerate(names):
                if not _IDENT.match(name):
                    raise ValueError(f"bad generator name {name!r}")
                if name in roles:
                    raise ValueError(f"duplicate generator name {name!r}")
                roles[name] = (kind, i)
        object.__setattr__(self, "_roles", roles)

    def role(self, name: str) -> tuple[str, int]:
        """("coord"|"odd"|"even2", position) for a known name."""
        try:
            return self._roles[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def degree_of(self, name: str) -> int:
        kind = self.role(name)[0]
        return {"coord": 0, "odd": 1, "even2": 2}[kind]


def _merge_odd(a: tuple, b: tuple):
    """Koszul sign and merged index tuple; sign 0 when an index repeats."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    inversions = 0
    for i in a:
        for j in b:
            if i == j:
                return 0, ()
            if i > j:
                inversions += 1
    sign = -1 if inversions & 1 else 1
    return sign, tuple(sorted(a + b))


def _add_product(acc: dict, a: dict, b: dict, w=1) -> None:
    """Append w times the product of term dicts a and b to the pending sums
    of acc, in place: each key of the product gets one more entry
    (sign*w, ca, cb) in its list, for ``_sum_pending`` to reduce."""
    for (oa, ea), ca in a.items():
        for (ob, eb), cb in b.items():
            sign, odd = _merge_odd(oa, ob)
            if sign == 0:
                continue
            key = (odd, tuple(map(add, ea, eb)))
            item = (w if sign > 0 else -w, ca, cb)
            pending = acc.get(key)
            if pending is None:
                acc[key] = [item]
            else:
                pending.append(item)


def _sum_pending(acc: dict) -> dict:
    """The term dict of pending sums, each key's products reduced once by
    ``scalar.sum_products``; sums that cancel stay, as zeros."""
    return {key: sum_products(products[0][1].chart, products) for key, products in acc.items()}


def _monomial_sum(table: GeneratorTable, entries) -> "SuperPoly":
    """sum f * (product of the named odd and degree-2 generators, left to
    right) over the (names, f) pairs.

    Each monomial is built directly: its odd key is the sorted index tuple,
    and its Koszul sign is the parity of the inversions that sorting undoes.
    """
    terms: dict = {}
    for names, f in entries:
        odd, even = [], [0] * len(table.even2)
        for name in names:
            kind, i = table.role(name)
            if kind == "odd":
                odd.append(i)
            else:
                even[i] += 1
        if len(set(odd)) < len(odd):
            continue
        if sum(a > b for k, a in enumerate(odd) for b in odd[k + 1 :]) & 1:
            f = -f
        key = (tuple(sorted(odd)), tuple(even))
        s = terms.get(key)
        terms[key] = f if s is None else s + f
    return SuperPoly(table, terms)


def _partial_terms(terms: dict, kind: str, i: int) -> dict:
    """Left derivative of a term dict by the generator (kind, i); no zeros.

    Distinct terms stay distinct under one derivative, so nothing is summed.
    """
    out: dict = {}
    if kind == "coord":
        for key, c in terms.items():
            d = c.partial(i + 1)
            if not d.is_zero:
                out[key] = d
    elif kind == "odd":
        for (odd, even), c in terms.items():
            if i in odd:
                pos = odd.index(i)
                out[(odd[:pos] + odd[pos + 1 :], even)] = -c if pos & 1 else c
    else:
        for (odd, even), c in terms.items():
            e = even[i]
            if e:
                out[(odd, even[:i] + (e - 1,) + even[i + 1 :])] = c if e == 1 else c.scaled(e)
    return out


def _term_key(key: tuple) -> tuple:
    odd, even = key
    return (len(odd), odd, even)


class SuperPoly:
    """Element of the graded algebra; immutable, canonical term dict.

    The constructor is the one place that drops zero coefficients, so
    arithmetic may hand it sums that cancelled.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: dict):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", {k: c for k, c in terms.items() if not c.is_zero})

    def __setattr__(self, name, value):
        raise AttributeError("SuperPoly is immutable")

    @staticmethod
    def zero(table: GeneratorTable) -> "SuperPoly":
        return SuperPoly(table, {})

    @staticmethod
    def from_scalar(table: GeneratorTable, f) -> "SuperPoly":
        if not isinstance(f, ScalarField):
            f = ScalarField.const(table.chart, f)
        key = ((), (0,) * len(table.even2))
        return SuperPoly(table, {key: f})

    @staticmethod
    def coordinate(table: GeneratorTable, name: str) -> "SuperPoly":
        return SuperPoly.from_scalar(table, ScalarField.coord(table.chart, name))

    @staticmethod
    def generator(table: GeneratorTable, name: str) -> "SuperPoly":
        kind, i = table.role(name)
        one = ScalarField.one(table.chart)
        zeros = (0,) * len(table.even2)
        if kind == "odd":
            return SuperPoly(table, {((i,), zeros): one})
        if kind == "even2":
            even = tuple(1 if j == i else 0 for j in range(len(table.even2)))
            return SuperPoly(table, {((), even): one})
        return SuperPoly.coordinate(table, name)

    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int:
        """0 or 1; raises on parity-mixed values. Zero counts as even."""
        parities = {len(odd) & 1 for odd, _ in self.terms}
        if len(parities) > 1:
            raise ValueError("mixed parity")
        return parities.pop() if parities else 0

    def degree(self) -> int:
        """Total degree of a homogeneous value; -1 for zero."""
        degrees = {len(odd) + 2 * sum(even) for odd, even in self.terms}
        if not degrees:
            return -1
        if len(degrees) > 1:
            raise ValueError("inhomogeneous degree")
        return degrees.pop()

    def degree_part(self, d: int) -> "SuperPoly":
        terms = {
            (odd, even): c
            for (odd, even), c in self.terms.items()
            if len(odd) + 2 * sum(even) == d
        }
        return SuperPoly(self.table, terms)

    def generator_names(self) -> set:
        out = set()
        for odd, even in self.terms:
            out.update(self.table.odd[i] for i in odd)
            out.update(n for n, e in zip(self.table.even2, even) if e)
        return out

    # arithmetic

    def _coerce(self, other):
        if isinstance(other, SuperPoly):
            if other.table != self.table:
                raise ValueError("generator table mismatch")
            return other
        if isinstance(other, (int, Fraction, ScalarField)):
            return SuperPoly.from_scalar(self.table, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for k, c in o.terms.items():
            s = terms.get(k)
            terms[k] = c if s is None else s + c
        return SuperPoly(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly(self.table, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        pending: dict = {}
        _add_product(pending, self.terms, o.terms)
        return SuperPoly(self.table, _sum_pending(pending))

    def __rmul__(self, other):
        # scalars are central, so left and right coercion agree
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarField.const(self.table.chart, other)
        if not isinstance(other, ScalarField):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero scalar")
        inv = 1 / other
        return SuperPoly(self.table, {k: c * inv for k, c in self.terms.items()})

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, SuperPoly) else other
        if o is None or not isinstance(o, SuperPoly):
            return NotImplemented
        return self.table == o.table and self.terms == o.terms

    def __bool__(self):
        return not self.is_zero

    # calculus

    def left_partial(self, name: str) -> "SuperPoly":
        """Left derivative by any generator or chart coordinate name."""
        kind, i = self.table.role(name)
        return SuperPoly(self.table, _partial_terms(self.terms, kind, i))

    def subst_odd(self, images: dict, table: GeneratorTable | None = None) -> "SuperPoly":
        """Algebra morphism sending odd generators to the given values.

        The images live on ``table``, by default this value's own, where
        unlisted generators stay put. Another table must share the chart and
        the even generators, and every odd generator present needs an image.
        Each term is expanded into products of its coefficient and one term
        of each image, and every coefficient of the result is summed once.
        """
        src = self.table
        table = src if table is None else table
        if (table.chart, table.even2) != (src.chart, src.even2):
            raise ValueError("substitution must keep the chart and the even generators")
        one = ScalarField.one(table.chart)
        zeros = (0,) * len(table.even2)
        gens = {i: {((i,), zeros): one} for i in range(len(src.odd))} if table == src else {}
        for name, img in images.items():
            kind, i = src.role(name)
            if kind != "odd":
                raise ValueError(f"{name!r} is not an odd generator")
            if not isinstance(img, SuperPoly) or img.table != table:
                raise ValueError("image table mismatch")
            gens[i] = img.terms
        if not gens.keys() >= {i for odd, _ in self.terms for i in odd}:
            raise ValueError("every odd generator present needs an image on another table")
        out: dict = {}
        for (odd, even), c in self.terms.items():
            # the term's products (w, c, a_1, ..., a_r), one factor a_j from
            # each image in turn, with the Koszul sign in the weight w
            expanded = [(((), even), 1, (c,))]
            for i in odd:
                longer = []
                for (oa, ea), w, fs in expanded:
                    for (ob, eb), a in gens[i].items():
                        sign, merged = _merge_odd(oa, ob)
                        if sign:
                            longer.append(((merged, tuple(map(add, ea, eb))), sign * w, (*fs, a)))
                expanded = longer
            for key, w, fs in expanded:
                out.setdefault(key, []).append((w, *fs))
        return SuperPoly(table, _sum_pending(out))

    # printing

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, key=_term_key):
            odd, even = key
            c = self.terms[key]
            factors = [self.table.odd[i] for i in odd]
            for name, e in zip(self.table.even2, even):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            negative = False
            if c.is_polynomial and len(c.num) == 1:
                mono, q = next(iter(c.num.items()))
                negative = q < 0
                text = str(-c) if negative else str(c)
            else:
                text = f"({c})"
            if factors and text == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([text] + factors)
            else:
                body = text
            if not pieces:
                pieces.append("-" + body if negative else body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"<SuperPoly {self}>"


def transport(f: SuperPoly, table: GeneratorTable) -> SuperPoly:
    """Move a value onto another table over the same chart, by name.

    Every generator appearing in f must be a generator of the same kind in
    the target table, or ValueError names the first offender in f's table
    order; index reordering signs are accounted for.
    """
    if f.table.chart != table.chart:
        raise ValueError("charts differ")
    src = f.table
    present = f.generator_names()
    for kind, names in (("odd", src.odd), ("even2", src.even2)):
        for name in (n for n in names if n in present):
            role = table._roles.get(name)
            if role is None:
                raise ValueError(f"generator {name!r} is not in the target table")
            if role[0] != kind:
                raise ValueError(f"{kind} generator {name!r} mapped onto a non-{kind} name")
    entries = (
        ([src.odd[i] for i in odd] + [n for n, e in zip(src.even2, even) for _ in range(e)], c)
        for (odd, even), c in f.terms.items()
    )
    return _monomial_sum(table, entries)


class SuperVectorField:
    """Graded derivation given by its components on coordinates/generators."""

    __slots__ = ("table", "components", "parity")

    def __init__(self, table: GeneratorTable, components: dict):
        comps = {}
        parities = set()
        for name, value in components.items():
            d = table.degree_of(name)
            if not isinstance(value, SuperPoly) or value.table != table:
                raise ValueError(f"component for {name!r} has the wrong table")
            if value.is_zero:
                continue
            parities.add((value.parity() - d) & 1)
            comps[name] = value
        if len(parities) > 1:
            raise ValueError("components of mixed parity")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "parity", parities.pop() if parities else 0)

    def __setattr__(self, name, value):
        raise AttributeError("SuperVectorField is immutable")

    def component(self, name: str) -> SuperPoly:
        return self.components.get(name, SuperPoly.zero(self.table))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def apply(self, f: SuperPoly) -> SuperPoly:
        if f.table != self.table:
            raise ValueError("generator table mismatch")
        pending: dict = {}
        for name, comp in self.components.items():
            _add_product(pending, comp.terms, f.left_partial(name).terms)
        return SuperPoly(self.table, _sum_pending(pending))

    def __eq__(self, other):
        if not isinstance(other, SuperVectorField):
            return NotImplemented
        return self.table == other.table and self.components == other.components

    def __str__(self):
        if not self.components:
            return "0"
        order = (*self.table.chart.names, *self.table.odd, *self.table.even2)
        pieces = []
        for name in order:
            if name in self.components:
                pieces.append(f"({self.components[name]}) d/d{name}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"<SuperVectorField {self}>"


def commutator(X: SuperVectorField, Y: SuperVectorField) -> SuperVectorField:
    """Graded commutator [X, Y] = XY - (-1)^{|X||Y|} YX."""
    if X.table != Y.table:
        raise ValueError("generator table mismatch")
    sign = -1 if X.parity and Y.parity else 1
    comps = {}
    for name in dict.fromkeys((*X.components, *Y.components)):
        a = X.apply(Y.component(name))
        # the two terms of [X, X] are equal
        b = a if X is Y else Y.apply(X.component(name))
        comps[name] = a - b if sign > 0 else a + b
    return SuperVectorField(X.table, comps)


def divergence(X: SuperVectorField) -> SuperPoly:
    """Berezinian coordinate divergence under the standard gauge."""
    out = SuperPoly.zero(X.table)
    for name, comp in X.components.items():
        piece = comp.left_partial(name)
        odd = X.table.role(name)[0] == "odd"
        out = out - piece if odd and not X.parity else out + piece
    return out


def gauge_divergence(X: SuperVectorField, g: ScalarField) -> SuperPoly:
    """Divergence against the gauge rescaled by a nonzero factor g."""
    if g.is_zero:
        raise ZeroDivisionError("zero gauge factor")
    moved = X.apply(SuperPoly.from_scalar(X.table, g))
    return divergence(X) + moved / g


def _parsed_product(a: dict, b: dict) -> dict:
    """Product of parsed values, keyed by (odd, even, coordinate exponents):
    _merge_odd gives the sign, and a repeated odd generator gives zero."""
    r: dict = {}
    for (oa, ea, xa), ca in a.items():
        for (ob, eb, xb), cb in b.items():
            sign, odd = _merge_odd(oa, ob)
            if not sign:
                continue
            key = (odd, tuple(map(add, ea, eb)), tuple(map(add, xa, xb)))
            s = r.get(key, 0) + (ca * cb if sign > 0 else -ca * cb)
            if s:
                r[key] = s
            else:
                r.pop(key, None)
    return r


def parse_super(text: str, table: GeneratorTable) -> SuperPoly:
    """Parse an expression over the chart coordinates and generators."""
    zeros = (0,) * len(table.even2)
    coords = (0,) * table.chart.m

    def resolve(name: str, line: int, col: int) -> dict:
        try:
            kind, i = table.role(name)
        except KeyError:
            raise ParseError(f"unknown identifier {name!r}", line, col) from None
        if kind == "odd":
            return {((i,), zeros, coords): 1}
        if kind == "even2":
            return {((), zeros[:i] + (1,) + zeros[i + 1 :], coords): 1}
        return {((), zeros, coords[:i] + (1,) + coords[i + 1 :]): 1}

    value = parse_expression(text, resolve, ((), zeros, coords), _parsed_product)
    groups: dict = {}
    for (odd, even, exponents), q in value.items():
        groups.setdefault((odd, even), {})[exponents] = q
    return SuperPoly(table, {key: ScalarField(table.chart, num) for key, num in groups.items()})
