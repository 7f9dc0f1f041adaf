"""Degree-2 graded symplectic spaces and cubic Hamiltonians.

A space carries odd degree-1 generators zeta^1..zeta^N with a constant
symmetric invertible pairing g, plus momenta p_1..p_m of degree 2
conjugate to the chart coordinates. The graded Poisson bracket is the
even degree-(-2) biderivation fixed by

    {x^a, p_b} = delta^a_b      {zeta^i, zeta^j} = g^{ij}  (inverse pairing)

computed as {F,G} = sum (right derivative of F) * (left derivative of G)
over conjugate generator pairs; for odd generators the right derivative
of F is (-1)^(|F|+1) times the left one. All residual sign freedom is
pinned by the frame-bracket identities tested downstream: with the
algebroid Hamiltonian below, {{xi_i, mu}, xi_j} = c_{ij}^k xi_k and
{{xi_i, mu}, x^a} = rho_i^a.

The bracket runs over the nonzero entries of the inverse pairing only,
listed once per space (a split space reads them off its block form, with
no arithmetic per entry). It takes the partials of F and G as term
dicts, each partial of G at most once per call, and differentiates F by
x^a only where G has a term in p_a to pair with it. It lists every
product under its key, with the sign and the pairing entry g^{ij} as a
rational weight, and sums each key's products once
(``superalg._sum_pending``), building a single SuperPoly at the end.

``hamiltonian_square`` does not call the bracket. {H, H} of a cubic is
graded-symmetric, so it lists half of the products, each with weight
2*g^{ij} (2 for the coordinate pairs), and the diagonal ones with weight
g^{ii}; each coefficient is then summed once, like the bracket's.

Split spaces mark N = 2n with zeta = (y^1..y^n, xi_1..xi_n) and the
off-diagonal block pairing, so {y^i, xi_j} = delta^i_j. Cubic
Hamiltonians on a split space decompose by monomial type:

    mu:  {y y xi, y p}     gamma: {xi xi y, xi p}
    phi: {y y y}           psi:   {xi xi xi}

Under the generator weights y = (0,1), xi = (1,0), p = (1,1) these
parts have bidegrees (1,2), (2,1), (0,3), (3,0); a weight convention
swapping the roles of y and xi relabels mu and gamma as (2,1) and
(1,2) and phi, psi as (3,0), (0,3). Only the monomial types matter
here, and the yyy part is the one acting as a 3-form on the algebroid
(a section of the third exterior power of the dual bundle).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebroid import SkewAlgebroid, _coerce_scalar
from .errors import cross_check
from .linalg import invert_matrix
from .scalar import BaseChart, ScalarField
from .superalg import (
    GeneratorTable,
    SuperPoly,
    _add_product,
    _monomial_sum,
    _partial_terms,
    _sum_pending,
)


class SymplecticSpace2:
    """Chart, odd generators with constant pairing, and momenta."""

    __slots__ = (
        "chart",
        "zeta",
        "momenta",
        "pairing",
        "pairing_inv",
        "split_rank",
        "table",
        "_inv_rows",
    )

    def __init__(self, chart: BaseChart, zeta: tuple, pairing, split_rank: int | None = None):
        zeta = tuple(zeta)
        n = len(zeta)
        if split_rank is not None:
            if n != 2 * split_rank:
                raise ValueError("split marking needs exactly 2n odd generators")
            if tuple(map(tuple, pairing)) != _block_pairing(split_rank):
                raise ValueError("split marking needs the block pairing")
            # the block pairing is symmetric and its own inverse; its rows
            # each hold one 1, at the conjugate generator
            g = inv = _block_pairing(split_rank)
            inv_rows = tuple((((i + split_rank) % n, 1),) for i in range(n))
        else:
            g = [[Fraction(v) for v in row] for row in pairing]
            if len(g) != n or any(len(row) != n for row in g):
                raise ValueError("pairing shape does not match the generators")
            for i in range(n):
                for j in range(n):
                    if g[i][j] != g[j][i]:
                        raise ValueError("pairing must be symmetric")
            inv = invert_matrix(g, Fraction(0), Fraction(1))
            if inv is None:
                raise ValueError("pairing must be invertible")
            inv_rows = tuple(tuple((j, q) for j, q in enumerate(row) if q) for row in inv)
        momenta = tuple(f"p{a}" for a in range(1, chart.m + 1))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "pairing", tuple(tuple(row) for row in g))
        object.__setattr__(self, "pairing_inv", tuple(tuple(row) for row in inv))
        object.__setattr__(self, "split_rank", split_rank)
        object.__setattr__(self, "table", GeneratorTable(chart, odd=zeta, even2=momenta))
        # the nonzero entries (j, g^{ij}) of each row i of the inverse pairing
        object.__setattr__(self, "_inv_rows", inv_rows)

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticSpace2 is immutable")

    def __eq__(self, other):
        if not isinstance(other, SymplecticSpace2):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.zeta == other.zeta
            and self.pairing == other.pairing
            and self.split_rank == other.split_rank
        )

    @property
    def is_split(self) -> bool:
        return self.split_rank is not None

    def y_name(self, i: int) -> str:
        return self.zeta[i - 1]

    def xi_name(self, i: int) -> str:
        return self.zeta[self.split_rank + i - 1]


def split_space(chart: BaseChart, n: int) -> SymplecticSpace2:
    """T*[2]E[1]-style space: zeta = (y^1..y^n, xi_1..xi_n)."""
    names = tuple(f"y{i}" for i in range(1, n + 1)) + tuple(f"xi{i}" for i in range(1, n + 1))
    return SymplecticSpace2(chart, names, _block_pairing(n), split_rank=n)


def _block_pairing(n: int) -> tuple:
    """The 2n x 2n pairing with {y^i, xi_j} = delta^i_j and all else 0."""
    return tuple((0,) * j + (1,) + (0,) * (2 * n - 1 - j) for j in (*range(n, 2 * n), *range(n)))


def poisson_bracket(F: SuperPoly, G: SuperPoly, space: SymplecticSpace2) -> SuperPoly:
    """The graded symplectic bracket; even, degree -2.

    dF/dx^a is taken only where dG/dp_a is nonzero, so a bracket with a
    generator, a section or a multivector differentiates F by few or no
    coordinates.
    """
    if F.table != space.table or G.table != space.table:
        raise ValueError("generator table mismatch")
    chart = space.chart
    g_partials: dict = {}

    def dG(kind: str, i: int) -> dict:
        d = g_partials.get((kind, i))
        if d is None:
            d = g_partials[kind, i] = _partial_terms(G.terms, kind, i)
        return d

    out: dict = {}
    for parity in (0, 1):
        part = {key: c for key, c in F.terms.items() if len(key[0]) & 1 == parity}
        if not part:
            continue
        for a in range(chart.m):
            dpG = dG("even2", a)
            if dpG:
                _add_product(out, _partial_terms(part, "coord", a), dpG)
            dpF = _partial_terms(part, "even2", a)
            if dpF:
                _add_product(out, dpF, dG("coord", a), -1)
        # the right derivative by zeta^i is (-1)^(parity+1) times the left one
        for i in sorted({i for odd, _ in part for i in odd}):
            dziF = _partial_terms(part, "odd", i)
            for j, gij in space._inv_rows[i]:
                dzjG = dG("odd", j)
                if not dzjG:
                    continue
                _add_product(out, dziF, dzjG, gij if parity else -gij)
    return SuperPoly(space.table, _sum_pending(out))


class Hamiltonian:
    """A degree-3 element generating the derived bracket calculus."""

    __slots__ = ("space", "value", "_memo")

    def __init__(self, space: SymplecticSpace2, value: SuperPoly):
        if value.table != space.table:
            raise ValueError("value does not live on the space")
        if not value.is_zero and value.degree() != 3:
            raise ValueError("Hamiltonians must be homogeneous of degree 3")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Hamiltonian is immutable")

    def __eq__(self, other):
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return self.space == other.space and self.value == other.value


def algebroid_hamiltonian(A: SkewAlgebroid, space: SymplecticSpace2 | None = None) -> Hamiltonian:
    """The cubic Hamiltonian whose derived bracket is the algebroid's.

    mu = -(sum_{i<j} c_{ij}^k y^i y^j xi_k) - rho_i^b y^i p_b; the
    momentum-term sign pairs with {x,p} = +delta to give anchors +rho.
    """
    if space is None:
        space = split_space(A.chart, A.rank)
    elif space.split_rank != A.rank or space.chart != A.chart:
        raise ValueError("space does not match the algebroid")
    y, xi = space.y_name, space.xi_name
    entries = [((y(i), y(j), xi(k)), -f) for (i, j, k), f in A.c.items()]
    entries += [((y(i), space.momenta[b - 1]), -r) for (i, b), r in A.rho.items()]
    return Hamiltonian(space, _monomial_sum(space.table, entries))


def standard_hamiltonian(space: SymplecticSpace2, rho: dict, phi: dict) -> Hamiltonian:
    """General-pairing builder: anchor rows rho[(i,a)] and a totally
    antisymmetric cubic phi[(i,j,k)] given for i<j<k."""
    zeta, chart = space.zeta, space.chart
    entries = [
        ((zeta[i - 1], space.momenta[a - 1]), -_coerce_scalar(chart, r)) for (i, a), r in rho.items()
    ]
    for (i, j, k), f in phi.items():
        if not i < j < k:
            raise ValueError("phi indices must be strictly increasing")
        entries.append(((zeta[i - 1], zeta[j - 1], zeta[k - 1]), -_coerce_scalar(chart, f)))
    return Hamiltonian(space, _monomial_sum(space.table, entries))


def hamiltonian_square(H: Hamiltonian) -> SuperPoly:
    """{H, H}; zero exactly when the derived bracket calculus closes.

    Every term of a cubic H is odd, so its partials by x^a and p_a are odd
    and anticommute, its partials by zeta^i are even and commute, and the
    inverse pairing is symmetric:

        {H, H} = 2 (sum_a dH/dx^a dH/dp_a + sum_{i<j} g^{ij} d_iH d_jH)
                 + sum_i g^{ii} (d_iH)^2.

    Each partial of H is taken once. The doubling is a weight on each
    product of the half-sum; the diagonal terms, which only unsplit
    pairings have, keep weight g^{ii}.
    """
    space, terms = H.space, H.value.terms
    out: dict = {}
    for a in range(space.chart.m):
        dpH = _partial_terms(terms, "even2", a)
        if dpH:
            _add_product(out, _partial_terms(terms, "coord", a), dpH, 2)
    dz = {i: _partial_terms(terms, "odd", i) for i in sorted({i for odd, _ in terms for i in odd})}
    for i, dziH in dz.items():
        for j, gij in space._inv_rows[i]:
            if j >= i and j in dz:
                _add_product(out, dziH, dz[j], gij if j == i else 2 * gij)
    return SuperPoly(space.table, _sum_pending(out))


def derived_bracket(X: SuperPoly, Y: SuperPoly, H: Hamiltonian) -> SuperPoly:
    """Dorfman-style bracket {{X, H}, Y} on degree-1 elements."""
    inner = poisson_bracket(X, H.value, H.space)
    return poisson_bracket(inner, Y, H.space)


def anchor_apply(X: SuperPoly, f, H: Hamiltonian) -> SuperPoly:
    """Anchor action {{X, H}, f} on a degree-0 function."""
    if isinstance(f, ScalarField):
        f = SuperPoly.from_scalar(H.space.table, f)
    inner = poisson_bracket(X, H.value, H.space)
    return poisson_bracket(inner, f, H.space)


def _monomial_type(space: SymplecticSpace2, key: tuple) -> tuple:
    odd, even = key
    n = space.split_rank
    ny = sum(1 for i in odd if i < n)
    nxi = len(odd) - ny
    return (ny, nxi, sum(even))


BidegreeParts = namedtuple("BidegreeParts", "mu gamma phi psi")

_MU_TYPES = {(2, 1, 0), (1, 0, 1)}
_GAMMA_TYPES = {(1, 2, 0), (0, 1, 1)}
_PHI_TYPE = (3, 0, 0)
_PSI_TYPE = (0, 3, 0)


def bidegree_split(H: Hamiltonian) -> BidegreeParts:
    """Monomial-type decomposition of a cubic on a split space; once per H."""
    if "split" in H._memo:
        return H._memo["split"]
    space = H.space
    if not space.is_split:
        raise ValueError("bidegree split needs a split space")
    buckets = {"mu": {}, "gamma": {}, "phi": {}, "psi": {}}
    for key, c in H.value.terms.items():
        t = _monomial_type(space, key)
        if t in _MU_TYPES:
            buckets["mu"][key] = c
        elif t in _GAMMA_TYPES:
            buckets["gamma"][key] = c
        elif t == _PHI_TYPE:
            buckets["phi"][key] = c
        else:
            buckets["psi"][key] = c
    parts = BidegreeParts(
        **{name: Hamiltonian(space, SuperPoly(space.table, terms)) for name, terms in buckets.items()}
    )
    H._memo["split"] = parts
    return parts


def _projection(H: Hamiltonian) -> SkewAlgebroid | None:
    """The algebroid on E that H projects onto, or None; once per H.

    Projectability is gamma = psi = 0, cross-checked against the direct
    field criterion that {H, x^a} and {H, y^i} involve y only. When both
    hold, those brackets are the anchor and structure functions.
    """
    if "projection" in H._memo:
        return H._memo["projection"]
    parts = bidegree_split(H)
    by_type = parts.gamma.value.is_zero and parts.psi.value.is_zero
    space = H.space
    n = space.split_rank
    allowed = set(space.zeta[:n])
    brackets = {}
    for name in (*space.chart.names, *space.zeta[:n]):
        comp = poisson_bracket(H.value, SuperPoly.generator(space.table, name), space)
        if not comp.generator_names() <= allowed:
            break
        brackets[name] = comp
    by_field = len(brackets) == space.chart.m + n
    cross_check(by_type, by_field, "projectability criteria disagree", "projectability")
    algebroid = None
    if by_type:
        # only y^1..y^n occur, at odd indices 0..n-1
        c = {
            (odd[0] + 1, odd[1] + 1, k): -coeff
            for k in range(1, n + 1)
            for (odd, _even), coeff in brackets[space.y_name(k)].terms.items()
        }
        rho = {
            (odd[0] + 1, b): coeff
            for b, x_name in enumerate(space.chart.names, start=1)
            for (odd, _even), coeff in brackets[x_name].terms.items()
        }
        algebroid = SkewAlgebroid(space.chart, n, c, rho)
    H._memo["projection"] = algebroid
    return algebroid


def is_projectable(H: Hamiltonian) -> bool:
    """gamma = psi = 0; cross-checked against the direct field criterion."""
    return _projection(H) is not None


def project_to_E(H: Hamiltonian) -> SkewAlgebroid:
    """The algebroid read off the brackets {H, x^a} and {H, y^i}.

    The same object comes back on every call with the same H, so its
    memoised de Rham field and tables are shared by every caller.
    """
    algebroid = _projection(H)
    if algebroid is None:
        raise ValueError("Hamiltonian is not projectable")
    return algebroid
