"""Skew and Lie algebroids over a single chart.

Structure data is a rank, antisymmetric structure functions c (stored
for i<j only) and anchor components rho, nonzero entries only. Every
structure loop walks the stored entries. ScalarField.zero and
ScalarField.one are one shared object per chart. Three encodings share the
kernel: sections of the bundle are coefficient tuples over the frame
e_1..e_n; forms are polynomials in odd generators y1..yn (y^i dual to
e_i); multivectors are polynomials in a second odd frame xi1..xin
(xi_i standing for e_i). Chart coordinate names must stay clear of the
generated names y*, xi*, p*. A change of frame is reduced once: one
elimination gives the structure functions of every pair.

The structure vector field is

    d = -(sum_{i<j} c_{ij}^k y^i y^j) d/dy^k + (rho_i^b y^i) d/dx^b

an odd degree-1 derivation on forms; the algebroid is Lie exactly when
d squares to zero, and [d, d] is the Jacobi obstruction certificate.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalConsistencyError
from .linalg import row_reduce
from .scalar import BaseChart, ScalarField, sum_products
from .superalg import (
    GeneratorTable,
    SuperPoly,
    SuperVectorField,
    _monomial_sum,
    commutator,
    transport,
)


def _coerce_scalar(chart: BaseChart, value) -> ScalarField:
    if isinstance(value, ScalarField):
        if value.chart != chart:
            raise ValueError("chart mismatch")
        return value
    if isinstance(value, (int, Fraction)):
        return ScalarField.const(chart, value)
    raise TypeError(f"cannot use {value!r} as a scalar")


def _components(chart: BaseChart, n: int, values) -> tuple:
    """Coerce a length-n sequence of scalars: a section or a covector."""
    values = tuple(_coerce_scalar(chart, v) for v in values)
    if len(values) != n:
        raise ValueError("section length does not match the rank")
    return values


def _form_coefficient(omega: SuperPoly, i: int) -> ScalarField:
    """Coefficient of the i-th frame form y^i, 1-based, in a form."""
    return omega.terms.get(((i - 1,), ()), ScalarField.zero(omega.table.chart))


def _components_to_form(A: SkewAlgebroid, comps) -> SuperPoly:
    """The y-linear form sum_i comps[i - 1] y^i on A's form table."""
    table = A.table()
    return _monomial_sum(table, zip(((y,) for y in table.odd), comps))


class SkewAlgebroid:
    """Rank, structure functions c_{ij}^k (i<j), anchor rho_i^a."""

    __slots__ = ("chart", "rank", "c", "rho", "_memo")

    def __init__(self, chart: BaseChart, rank: int, c: dict | None = None, rho: dict | None = None):
        if rank < 1:
            raise ValueError("rank must be positive")
        cc = {}
        for (i, j, k), value in (c or {}).items():
            if not (1 <= i < j <= rank and 1 <= k <= rank):
                raise ValueError(f"bad structure index ({i},{j},{k})")
            f = _coerce_scalar(chart, value)
            if not f.is_zero:
                cc[(i, j, k)] = f
        rr = {}
        for (i, a), value in (rho or {}).items():
            if not (1 <= i <= rank and 1 <= a <= chart.m):
                raise ValueError(f"bad anchor index ({i},{a})")
            f = _coerce_scalar(chart, value)
            if not f.is_zero:
                rr[(i, a)] = f
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c", cc)
        object.__setattr__(self, "rho", rr)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("SkewAlgebroid is immutable")

    def table(self) -> GeneratorTable:
        """Form generators y1..yn over the chart."""
        if "table" not in self._memo:
            names = tuple(f"y{i}" for i in range(1, self.rank + 1))
            self._memo["table"] = GeneratorTable(self.chart, odd=names)
        return self._memo["table"]

    def mv_table(self) -> GeneratorTable:
        """Multivector generators xi1..xin over the chart."""
        if "mv_table" not in self._memo:
            names = tuple(f"xi{i}" for i in range(1, self.rank + 1))
            self._memo["mv_table"] = GeneratorTable(self.chart, odd=names)
        return self._memo["mv_table"]

    def section(self, values) -> tuple:
        """Coerce a length-n sequence into section encoding."""
        return _components(self.chart, self.rank, values)

    def frame_section(self, i: int) -> tuple:
        return tuple(
            ScalarField.one(self.chart) if j == i else ScalarField.zero(self.chart)
            for j in range(1, self.rank + 1)
        )

    def anchor_action(self, X, f: ScalarField) -> ScalarField:
        """rho(X) applied to a base function."""
        return sum_products(self.chart, self._anchor_products(self.section(X), f))

    def _anchor_products(self, X: tuple, f: ScalarField, w=1) -> list:
        """The products (w, X_i, rho_i^a, df/dx_a) that w*rho(X) f sums."""
        return [(w, X[i - 1], r, f.partial(a)) for (i, a), r in self.rho.items() if not X[i - 1].is_zero]

    def de_rham_field(self) -> SuperVectorField:
        if "field" not in self._memo:
            table = self.table()
            y = table.odd
            entries = {name: [] for name in (*y, *self.chart.names)}
            for (i, j, k), f in self.c.items():
                entries[y[k - 1]].append(((y[i - 1], y[j - 1]), -f))
            for (i, b), r in self.rho.items():
                entries[self.chart.names[b - 1]].append(((y[i - 1],), r))
            comps = {name: _monomial_sum(table, e) for name, e in entries.items()}
            self._memo["field"] = SuperVectorField(table, comps)
        return self._memo["field"]

    def jacobi_obstruction(self) -> SuperVectorField:
        """[d, d]; zero exactly for Lie algebroids."""
        if "jacobi" not in self._memo:
            d = self.de_rham_field()
            self._memo["jacobi"] = commutator(d, d)
        return self._memo["jacobi"]

    def is_lie(self) -> bool:
        if "is_lie" not in self._memo:
            self._memo["is_lie"] = self.jacobi_obstruction().is_zero
        return self._memo["is_lie"]


def is_lie(A: SkewAlgebroid):
    """(flag, certificate): certificate is [d,d] when nonzero."""
    obstruction = A.jacobi_obstruction()
    if obstruction.is_zero:
        return True, None
    return False, obstruction


def bracket_sections(A: SkewAlgebroid, X, Y) -> tuple:
    """Anchored antisymmetric bracket on section encodings."""
    X = A.section(X)
    Y = A.section(Y)
    sums = [A._anchor_products(X, y) + A._anchor_products(Y, x, -1) for x, y in zip(X, Y)]
    for (i, j, k), f in A.c.items():
        sums[k - 1] += [(1, X[i - 1], Y[j - 1], f), (-1, X[j - 1], Y[i - 1], f)]
    return tuple(sum_products(A.chart, products) for products in sums)


def interior_product(A: SkewAlgebroid, X, omega: SuperPoly) -> SuperPoly:
    """Contraction of a form with a section, ScalarField-linear in X."""
    X = A.section(X)
    table = A.table()
    if omega.table != table:
        raise ValueError("omega must live on the form table")
    out = SuperPoly.zero(table)
    for i, coeff in enumerate(X):
        if not coeff.is_zero:
            out = out + coeff * omega.left_partial(table.odd[i])
    return out


def lie_derivative_form(A: SkewAlgebroid, X, omega: SuperPoly) -> SuperPoly:
    """Cartan formula: contract-then-differentiate plus the reverse."""
    d = A.de_rham_field()
    return interior_product(A, X, d.apply(omega)) + d.apply(interior_product(A, X, omega))


def schouten(A: SkewAlgebroid, U: SuperPoly, V: SuperPoly) -> SuperPoly:
    """Multivector bracket, degree -1, via the derived bracket upstairs."""
    from . import courant

    table = A.mv_table()
    if U.table != table or V.table != table:
        raise ValueError("multivectors must live on the multivector table")
    setup = A._memo.get("schouten")
    if setup is None:
        space = courant.split_space(A.chart, A.rank)
        mu = courant.algebroid_hamiltonian(A, space)
        setup = (space, mu.value)
        A._memo["schouten"] = setup
    space, mu = setup
    lifted_u = transport(U, space.table)
    lifted_v = transport(V, space.table)
    inner = courant.poisson_bracket(lifted_u, mu, space)
    outer = courant.poisson_bracket(inner, lifted_v, space)
    try:
        return transport(outer, table)
    except ValueError as exc:
        raise InternalConsistencyError(
            "multivector bracket left the multivector algebra"
        ) from exc


class AlgebroidMorphism:
    """Base-preserving bundle map e_i -> sum_j Phi_i^j e_j between
    algebroids over one chart."""

    __slots__ = ("source", "target", "matrix", "_memo")

    def __init__(self, source: SkewAlgebroid, target: SkewAlgebroid, matrix: dict):
        if source.chart != target.chart:
            raise ValueError("morphisms must be base-preserving over one chart")
        entries = {}
        for (i, j), value in matrix.items():
            if not (1 <= i <= source.rank and 1 <= j <= target.rank):
                raise ValueError(f"bad matrix index ({i},{j})")
            f = _coerce_scalar(source.chart, value)
            if not f.is_zero:
                entries[(i, j)] = f
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", entries)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("AlgebroidMorphism is immutable")


def pullback(phi: AlgebroidMorphism, omega: SuperPoly) -> SuperPoly:
    """Substitute target frame forms along the morphism matrix."""
    tgt = phi.target.table()
    src = phi.source.table()
    if omega.table != tgt:
        raise ValueError("omega must live on the target form table")
    entries = {y: [] for y in tgt.odd}
    for (i, j), f in phi.matrix.items():
        entries[tgt.odd[j - 1]].append(((src.odd[i - 1],), f))
    return omega.subst_odd({y: _monomial_sum(src, e) for y, e in entries.items()}, src)


def is_morphism(phi: AlgebroidMorphism):
    """(flag, certificate); checks the intertwining law on generators,
    once per morphism: the verdict is memoised on it."""
    if "verdict" not in phi._memo:
        phi._memo["verdict"] = _intertwining(phi)
    return phi._memo["verdict"]


def _intertwining(phi: AlgebroidMorphism):
    d1 = phi.source.de_rham_field()
    d2 = phi.target.de_rham_field()
    src, tgt = phi.source.table(), phi.target.table()
    for a in phi.source.chart.names:
        lhs = pullback(phi, d2.apply(SuperPoly.coordinate(tgt, a)))
        rhs = d1.apply(SuperPoly.coordinate(src, a))
        if lhs != rhs:
            return False, (a, lhs - rhs)
    for name in tgt.odd:
        omega = SuperPoly.generator(tgt, name)
        lhs = pullback(phi, d2.apply(omega))
        rhs = d1.apply(pullback(phi, omega))
        if lhs != rhs:
            return False, (name, lhs - rhs)
    return True, None


def conjugate_frame(A: SkewAlgebroid, G: list) -> SkewAlgebroid:
    """The same algebroid written in the frame e'_i = sum_j G_i^j e_j.

    G must be invertible over the scalar field. The new structure
    functions t solve t G = [e'_i, e'_j] for every pair at once: one
    reduction of [G^T | one column per bracket].
    """
    n = A.rank
    rows = [[_coerce_scalar(A.chart, G[i][j]) for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    brackets = [bracket_sections(A, rows[i - 1], rows[j - 1]) for i, j in pairs]
    system = [[row[l] for row in rows] + [b[l] for b in brackets] for l in range(n)]
    pivots = row_reduce(system, n)
    if len(pivots) < n:
        raise ValueError("frame matrix is singular")
    c = {(i, j, k + 1): system[r][n + p] for p, (i, j) in enumerate(pairs) for r, k in pivots}
    rho = {}
    for (l, a), r in A.rho.items():
        for i, row in enumerate(rows, start=1):
            rho[(i, a)] = rho.get((i, a), ScalarField.zero(A.chart)) + row[l - 1] * r
    return SkewAlgebroid(A.chart, n, c, rho)
