"""Dense rational inputs that the primitive PRS gcd could not finish.

With every structure function a quotient of linear polynomials in several
coordinates, sums and products need multivariate gcds of dozens of terms;
the PRS gave no answer within minutes on either case below. Each answer is
checked by a route that shares no gcd code with the library: sympy's gcd
shows every coefficient in lowest terms, and the wedge-Leibniz oracle gives
the Jacobi verdict. Sparse inputs of the same form, whose denominators are
all products of shifts d + x_w, now need no gcd at all.
"""

import random
from time import perf_counter

import sympy

from algebroids import scalar
from algebroids.algebroid import SkewAlgebroid, is_lie
from algebroids.courant import Hamiltonian, algebroid_hamiltonian, hamiltonian_square, split_space
from algebroids.dirac import Bivector, solve_twist
from algebroids.modular import characteristic_form, modular_cocycle
from algebroids.scalar import BaseChart, ScalarField

from genlib import dense_rational_skew, sparse_rational_skew
from oracles import is_lie_oracle

# Both cases answer in well under a second here; this only catches a
# return to the minutes the PRS took.
SECONDS = 30


def assert_canonical(f: ScalarField):
    """Numerator and denominator coprime by sympy, denominator monic."""
    ring = sympy.ring(f.chart.names, sympy.QQ)[0]

    def to_ring(p):
        return ring.from_dict({m: sympy.QQ(c.numerator, c.denominator) for m, c in p.items()})

    assert to_ring(f.num).gcd(to_ring(f.den)).is_ground
    assert f.den[max(f.den, key=lambda m: (sum(m), m))] == 1


def test_dense_rank3_is_lie():
    chart = BaseChart(("x1", "x2", "x3"))
    A = dense_rational_skew(random.Random(2), chart, 3)
    start = perf_counter()
    flag, obstruction = is_lie(A)
    assert perf_counter() - start < SECONDS
    assert flag == is_lie_oracle(A)
    assert not flag
    for component in obstruction.components.values():
        for coefficient in component.terms.values():
            assert_canonical(coefficient)


def test_dense_bivector_rank4_solve_twist():
    """All six bivector entries a + b1*x1 + ... + b4*x4."""
    rng = random.Random(4)
    chart = BaseChart(("x1", "x2", "x3", "x4"))
    x = [ScalarField.coord(chart, name) for name in chart.names]
    A = SkewAlgebroid(chart, 4, {}, {(a, a): 1 for a in range(1, 5)})
    space = split_space(chart, 4)

    def coef():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    entries = {(i, j): coef() + sum(coef() * xa for xa in x) for i in range(1, 5) for j in range(i + 1, 5)}
    P = Bivector(space, entries)
    start = perf_counter()
    phi = solve_twist(P, A)
    assert perf_counter() - start < SECONDS
    assert phi is not None and not phi.is_zero
    assert any(not c.is_polynomial for c in phi.terms.values())
    for coefficient in phi.terms.values():
        assert_canonical(coefficient)
    assert hamiltonian_square(Hamiltonian(space, algebroid_hamiltonian(A, space).value + phi)).is_zero


def test_shifted_denominators_take_no_gcd(monkeypatch):
    """Every denominator of a sparse rational algebroid is a product of
    shifts d + x_w, each certified irreducible, so the entry points cancel
    by trial division alone: none of them reaches the heuristic gcd, let
    alone the PRS. One 2*x2^2 - 3 denominator, which no coordinate
    certifies, sends them back to the heuristic gcd."""
    heu_calls, prs_calls = [], []
    heu, prs = scalar._heu, scalar._prs
    monkeypatch.setattr(scalar, "_heu", lambda *args: heu_calls.append(args) or heu(*args))
    monkeypatch.setattr(scalar, "_prs", lambda *args: prs_calls.append(args) or prs(*args))
    chart = BaseChart(("x1", "x2", "x3"))

    def entry_points(A):
        is_lie(A)
        modular_cocycle(A)
        characteristic_form(A)
        hamiltonian_square(algebroid_hamiltonian(A))

    algebroids = [sparse_rational_skew(random.Random(seed), chart, n) for seed, n in ((1, 3), (2, 3), (3, 4))]
    for A in algebroids:
        entry_points(A)
    assert heu_calls == [] and prs_calls == []
    A = algebroids[0]
    key = min(A.c)
    x1, x2 = ScalarField.coord(chart, "x1"), ScalarField.coord(chart, "x2")
    entry_points(SkewAlgebroid(chart, A.rank, {**A.c, key: (1 + x1) / (2 * x2 * x2 - 3)}, A.rho))
    assert heu_calls
