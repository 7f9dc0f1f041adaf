"""Modular cocycles of skew algebroids and their exactness.

The modular cocycle measures how the structure differential distorts
the coordinate Berezin volume: it is the divergence of that odd field,
and it comes out linear in the frame generators with components

    phi_i = sum_k c_{ik}^k + sum_a d(rho_i^a)/dx^a.

For a Lie algebroid this cochain is closed and its class is the
obstruction to the existence of an invariant volume; changing the base
volume by a positive factor g shifts the representative by the
anchor-logarithmic term rho_i(g)/g, which does not move the class.
A skew algebroid that fails the Jacobi identity still has a modular
cocycle, but closedness can fail, and the library deliberately keeps
that failure observable.

Every public entry point recomputes its answer along two independent
routes and raises InternalConsistencyError when they disagree. The
modular cocycle is memoised on its algebroid per gauge, so both of its
routes are compared once per (algebroid, gauge).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .algebroid import (
    SkewAlgebroid,
    _coerce_scalar,
    _components_to_form,
    _form_coefficient,
    bracket_sections,
    is_morphism,
    pullback,
)
from .errors import InternalConsistencyError, cross_check
from .linalg import solve_linear
from .scalar import ScalarField
from .superalg import SuperPoly, divergence, gauge_divergence


class Cocycle1:
    """A frame-linear 1-cochain; closedness is enforced on Lie algebroids."""

    __slots__ = ("algebroid", "value")

    def __init__(self, algebroid: SkewAlgebroid, value: SuperPoly):
        if value.table != algebroid.table():
            raise ValueError("cochain must live on the algebroid's form generators")
        if not value.is_zero and value.degree() != 1:
            raise ValueError("1-cochains must be homogeneous of degree 1")
        if algebroid.is_lie():
            residual = algebroid.de_rham_field().apply(value)
            if not residual.is_zero:
                raise ValueError(f"cochain is not closed: d gives {residual}")
        object.__setattr__(self, "algebroid", algebroid)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Cocycle1 is immutable")

    def component(self, i: int) -> ScalarField:
        """Coefficient of the i-th frame generator, 1-based."""
        return _form_coefficient(self.value, i)

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def __eq__(self, other):
        if not isinstance(other, Cocycle1):
            return NotImplemented
        return self.algebroid is other.algebroid and self.value == other.value

    def __str__(self):
        return str(self.value)


def _structure_traces(A: SkewAlgebroid) -> list:
    """phi_i = sum_k c_{ik}^k + sum_a d(rho_i^a)/dx^a for every i, from the
    stored entries: c_{ij}^j adds to phi_i and c_{ij}^i = -c_{ji}^i to phi_j."""
    out = [ScalarField.zero(A.chart)] * A.rank
    for (i, j, k), f in A.c.items():
        if k == j:
            out[i - 1] = out[i - 1] + f
        elif k == i:
            out[j - 1] = out[j - 1] - f
    for (i, a), r in A.rho.items():
        out[i - 1] = out[i - 1] + r.partial(a)
    return out


def modular_cocycle(A: SkewAlgebroid, gauge=None) -> Cocycle1:
    """Divergence of the structure differential, cross-checked against
    the structure-constant trace formula once per (A, gauge)."""
    key = ("modular", gauge)
    if key in A._memo:
        return A._memo[key]
    if gauge is None:
        div = divergence(A.de_rham_field())
    else:
        g = _coerce_scalar(A.chart, gauge)
        div = gauge_divergence(A.de_rham_field(), g)
    coeffs = _structure_traces(A)
    if gauge is not None:
        coeffs = [f + A.anchor_action(A.frame_section(i), g) / g for i, f in enumerate(coeffs, 1)]
    traces = _components_to_form(A, coeffs)
    cross_check(div, traces, "modular cocycle paths disagree", "modular_cocycle")
    A._memo[key] = Cocycle1(A, div)
    return A._memo[key]


def characteristic_form(A: SkewAlgebroid, gauge=None) -> Cocycle1:
    """Frame-trace route: adjoint trace through the section bracket plus
    the anchor divergence, per frame direction."""
    g = None if gauge is None else _coerce_scalar(A.chart, gauge)
    coeffs = [ScalarField.zero(A.chart)] * A.rank
    for (i, a), r in A.rho.items():
        coeffs[i - 1] = coeffs[i - 1] + r.partial(a)
    frame = [A.frame_section(i) for i in range(1, A.rank + 1)]
    # [e_k, e_i]^i = -[e_i, e_k]^i and [e_i, e_i] = 0: one bracket per pair i < k
    for i, k in combinations(range(A.rank), 2):
        b = bracket_sections(A, frame[i], frame[k])
        coeffs[i], coeffs[k] = coeffs[i] + b[k], coeffs[k] - b[i]
    if g is not None:
        coeffs = [f + A.anchor_action(e_i, g) / g for f, e_i in zip(coeffs, frame)]
    return Cocycle1(A, _components_to_form(A, coeffs))


def d_of_function(A: SkewAlgebroid, f: ScalarField) -> SuperPoly:
    """The structure differential applied to a base function."""
    return A.de_rham_field().apply(SuperPoly.from_scalar(A.table(), f))


def exact_bound(value: SuperPoly) -> int:
    """is_exact's default degree bound: the coefficient degree of a
    polynomial 1-cochain plus two (1 for zero)."""
    return max((f.total_degree() for f in value.terms.values()), default=-1) + 2


def is_exact(A: SkewAlgebroid, alpha, bound: int | None = None):
    """Search for a polynomial potential alpha = d f up to a degree bound.

    Returns (True, f) with one witness, or (False, None) when no
    polynomial of total degree <= bound works. The default bound is
    exact_bound(alpha). Data must be polynomial; the witness search is
    a finite exact linear solve, so a NO answer is a proof only
    relative to the bound.
    """
    value = alpha.value if isinstance(alpha, Cocycle1) else alpha
    if value.table != A.table():
        raise ValueError("cochain must live on the algebroid's form generators")
    chart = A.chart
    components = []
    for i in range(1, A.rank + 1):
        comp = _form_coefficient(value, i)
        if not comp.is_polynomial:
            raise ValueError("exactness search needs polynomial components")
        components.append(comp)
    for key in A.rho:
        if not A.rho[key].is_polynomial:
            raise ValueError("exactness search needs a polynomial anchor")
    if value.is_zero:
        return True, ScalarField.zero(chart)
    if bound is None:
        bound = exact_bound(value)
    monos = []
    for total in range(1, bound + 1):
        for combo in combinations_with_replacement(range(chart.m), total):
            expo = [0] * chart.m
            for v in combo:
                expo[v] += 1
            monos.append(tuple(expo))
    frame = [A.frame_section(i) for i in range(1, A.rank + 1)]
    images = []
    for expo in monos:
        base = ScalarField(chart, {expo: 1})
        images.append([A.anchor_action(e_i, base) for e_i in frame])
    rows, rhs = [], []
    for i in range(A.rank):
        nums = [img[i].num for img in images]
        target = components[i].num
        for key in sorted(set(target).union(*nums)):
            rows.append([Fraction(num.get(key, 0)) for num in nums])
            rhs.append(Fraction(target.get(key, 0)))
    solution = solve_linear(rows, rhs, Fraction(0))
    if solution is None:
        return False, None
    f = ScalarField(chart, {expo: q for q, expo in zip(solution, monos) if q})
    if d_of_function(A, f) != value:
        raise InternalConsistencyError("exactness witness fails verification")
    return True, f


def modular_class_of_morphism(phi) -> Cocycle1:
    """Relative representative: source cocycle minus the pulled-back
    target cocycle along a checked morphism."""
    ok, certificate = is_morphism(phi)
    if not ok:
        raise ValueError(f"not an algebroid morphism, fails at {certificate[0]}")
    src_mod = modular_cocycle(phi.source).value
    tgt_mod = modular_cocycle(phi.target).value
    return Cocycle1(phi.source, src_mod - pullback(phi, tgt_mod))
