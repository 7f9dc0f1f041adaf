"""Graded symplectic bracket, cubic Hamiltonians, derived brackets."""

import random

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import courant
from algebroids.algebroid import SkewAlgebroid, bracket_sections, is_lie
from algebroids.courant import (
    Hamiltonian,
    SymplecticSpace2,
    algebroid_hamiltonian,
    anchor_apply,
    bidegree_split,
    derived_bracket,
    hamiltonian_square,
    is_projectable,
    poisson_bracket,
    project_to_E,
    split_space,
    standard_hamiltonian,
)
from algebroids.errors import InternalConsistencyError
from algebroids.scalar import BaseChart, ScalarField, parse_scalar
from algebroids.superalg import SuperPoly, parse_super

from genlib import dense_rational_skew, rand_lie, rand_skew, rand_super_homogeneous, sparse_rational_skew
from oracles import _term_product, bracket_sections_oracle, c_at, poisson_bracket_oracle, rho_at

CH1 = BaseChart(("x1",))
CH2 = BaseChart(("x1", "x2"))
CH3 = BaseChart(("x1", "x2", "x3"))
CH4 = BaseChart(("x1", "x2", "x3", "x4"))


def tangent(chart):
    m = chart.m
    return SkewAlgebroid(chart, m, {}, {(a, a): 1 for a in range(1, m + 1)})


def gen(space, name):
    return SuperPoly.generator(space.table, name)


def embed(space, text):
    return SuperPoly.from_scalar(space.table, parse_scalar(text, space.chart))


def ps(space, text):
    return parse_super(text, space.table)


def lift_section(A, space, values):
    out = SuperPoly.zero(space.table)
    for i, v in enumerate(values, start=1):
        f = v if isinstance(v, ScalarField) else ScalarField.const(A.chart, v)
        out = out + f * gen(space, space.xi_name(i))
    return out


def section_of(A, space, element):
    """Read a pure-xi degree-1 element back as a coefficient tuple."""
    comps = [ScalarField.zero(A.chart) for _ in range(A.rank)]
    for (odd, even), coeff in element.terms.items():
        assert not any(even)
        assert len(odd) == 1 and odd[0] >= space.split_rank
        comps[odd[0] - space.split_rank] = coeff
    return tuple(comps)


def test_fundamental_brackets():
    sp = split_space(CH2, 2)
    x1, x2 = embed(sp, "x1"), embed(sp, "x2")
    p1 = gen(sp, "p1")
    p2 = gen(sp, "p2")
    y1, xi1 = gen(sp, "y1"), gen(sp, "xi1")
    y2, xi2 = gen(sp, "y2"), gen(sp, "xi2")
    one = embed(sp, "1")
    assert poisson_bracket(x1, p1, sp) == one
    assert poisson_bracket(p1, x1, sp) == -one
    assert poisson_bracket(x1, p2, sp).is_zero
    assert poisson_bracket(x1, x2, sp).is_zero
    assert poisson_bracket(p1, p2, sp).is_zero
    assert poisson_bracket(y1, xi1, sp) == one
    assert poisson_bracket(xi1, y1, sp) == one
    assert poisson_bracket(y1, y1, sp).is_zero
    assert poisson_bracket(xi1, xi2, sp).is_zero
    assert poisson_bracket(y1, xi2, sp).is_zero
    # momenta act as minus the coordinate derivative
    f = embed(sp, "x1^2*x2")
    assert poisson_bracket(p1, f, sp) == embed(sp, "2*x1*x2") * -1
    assert poisson_bracket(f, p1, sp) == embed(sp, "2*x1*x2")


def test_general_pairing_brackets():
    sp = SymplecticSpace2(CH1, ("z1", "z2"), [[1, 0], [0, -1]])
    z1, z2 = gen(sp, "z1"), gen(sp, "z2")
    one = embed(sp, "1")
    assert poisson_bracket(z1, z1, sp) == one
    assert poisson_bracket(z2, z2, sp) == -one
    assert poisson_bracket(z1, z2, sp).is_zero


def test_space_validation():
    with pytest.raises(ValueError):
        SymplecticSpace2(CH1, ("z1", "z2"), [[0, 1], [1, 0], [0, 0]])
    with pytest.raises(ValueError):
        SymplecticSpace2(CH1, ("z1", "z2"), [[0, 1], [-1, 0]])  # not symmetric
    with pytest.raises(ValueError):
        SymplecticSpace2(CH1, ("z1", "z2"), [[1, 1], [1, 1]])  # singular
    with pytest.raises(ValueError):
        SymplecticSpace2(CH1, ("z1", "z2", "z3"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], split_rank=1)
    with pytest.raises(ValueError):
        SymplecticSpace2(CH1, ("z1", "z2"), [[1, 0], [0, 1]], split_rank=1)
    with pytest.raises(ValueError, match="block pairing"):
        SymplecticSpace2(CH1, ("z1", "z2"), [["0", "1"], ["1", "0"]], split_rank=1)
    sp =split_space(CH2, 2)
    other = split_space(CH2, 1)
    with pytest.raises(ValueError):
        poisson_bracket(gen(sp, "y1"), gen(other, "y1"), sp)


def test_split_pairing_is_its_own_inverse(monkeypatch):
    inversions = []
    invert = courant.invert_matrix

    def counting(*args):
        inversions.append(args)
        return invert(*args)

    monkeypatch.setattr(courant, "invert_matrix", counting)
    for n in (1, 3):
        sp = split_space(CH2, n)
        assert sp.pairing_inv == sp.pairing
    assert inversions == []
    # an unsplit pairing is still inverted
    SymplecticSpace2(CH1, ("z1", "z2"), [[1, 0], [0, -1]])
    assert len(inversions) == 1


# The bracket kernel against the defining formula, on split spaces of rank
# 1-3 and on unsplit pairings whose inverses hold entries other than 0 and
# +-1. F and G are drawn with mixed parity and degree, and with polynomial
# and rational coefficients.
ORACLE_SPACES = [split_space(CH2, n) for n in (1, 2, 3)] + [
    SymplecticSpace2(CH2, ("z1", "z2"), [[2, 1], [1, -1]]),
    SymplecticSpace2(CH2, ("z1", "z2", "z3"), [[0, 2, 1], [2, 0, 0], [1, 0, Fraction(-1, 3)]]),
]
coefficients = st.tuples(
    st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
        st.fractions(-3, 3, max_denominator=3),
        min_size=1,
        max_size=2,
    ),
    st.sampled_from([None, None, {(0, 0): 1, (1, 0): 1}, {(0, 0): 2, (0, 1): -1}]),
).map(lambda nd: ScalarField(CH2, *nd))


def elements(space):
    keys = st.tuples(
        st.lists(st.integers(0, len(space.zeta) - 1), max_size=3, unique=True).map(
            lambda odd: tuple(sorted(odd))
        ),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    return st.dictionaries(keys, coefficients, max_size=4).map(
        lambda terms: SuperPoly(space.table, terms)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_bracket_matches_the_defining_formula(data):
    space = data.draw(st.sampled_from(ORACLE_SPACES))
    F, G = data.draw(elements(space)), data.draw(elements(space))
    bracket = poisson_bracket(F, G, space)
    assert bracket == poisson_bracket_oracle(F, G, space)
    assert all(not c.is_zero for c in bracket.terms.values())


def odd_elements(space):
    """Elements whose every term has one or three odd generators."""
    return elements(space).map(
        lambda F: SuperPoly(space.table, {key: c for key, c in F.terms.items() if len(key[0]) & 1})
    )


def cubics(space):
    """Degree-3 elements: zeta zeta zeta and zeta p terms."""
    N, m = len(space.zeta), space.chart.m
    units = [tuple(int(a == b) for b in range(m)) for a in range(m)]
    keys = st.tuples(st.integers(0, N - 1).map(lambda i: (i,)), st.sampled_from(units))
    if N >= 3:
        triples = st.lists(st.integers(0, N - 1), min_size=3, max_size=3, unique=True)
        keys = keys | triples.map(lambda odd: (tuple(sorted(odd)), (0,) * m))
    return st.dictionaries(keys, coefficients, max_size=5).map(lambda terms: SuperPoly(space.table, terms))


# {F, F} with G the same object as F. The unsplit pairings here have
# diagonal inverse entries g^{ii}, so the square's diagonal terms are met.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_self_bracket_matches_the_defining_formula(data):
    space = data.draw(st.sampled_from(ORACLE_SPACES))
    kind = data.draw(st.sampled_from(("odd", "cubic", "mixed")))
    F = data.draw({"odd": odd_elements, "cubic": cubics, "mixed": elements}[kind](space))
    expected = poisson_bracket_oracle(F, F, space)
    assert poisson_bracket(F, F, space) == expected
    if kind == "cubic":
        assert hamiltonian_square(Hamiltonian(space, F)) == expected


def test_bracket_bilinearity_and_degree():
    rng = random.Random(401)
    sp = split_space(CH2, 2)
    for _ in range(12):
        dF = rng.randrange(0, 4)
        dG = rng.randrange(0, 4)
        F = rand_super_homogeneous(rng, sp.table, dF)
        G = rand_super_homogeneous(rng, sp.table, dG)
        H = rand_super_homogeneous(rng, sp.table, dG)
        br = poisson_bracket(F, G, sp)
        if not br.is_zero:
            assert br.degree() == dF + dG - 2
            assert br.parity() == (F.parity() + G.parity()) % 2
        left = poisson_bracket(F, G + H, sp)
        assert left == poisson_bracket(F, G, sp) + poisson_bracket(F, H, sp)


def test_graded_antisymmetry():
    rng = random.Random(402)
    sp = split_space(CH2, 2)
    for _ in range(14):
        F = rand_super_homogeneous(rng, sp.table, rng.randrange(0, 4))
        G = rand_super_homogeneous(rng, sp.table, rng.randrange(0, 4))
        if F.is_zero or G.is_zero:
            continue
        sign = -1 if (F.parity() * G.parity()) % 2 == 0 else 1
        assert poisson_bracket(F, G, sp) == poisson_bracket(G, F, sp) * sign


def test_bracket_leibniz():
    rng = random.Random(403)
    sp = split_space(CH2, 2)
    for _ in range(10):
        F = rand_super_homogeneous(rng, sp.table, rng.randrange(0, 3))
        G = rand_super_homogeneous(rng, sp.table, rng.randrange(0, 3))
        H = rand_super_homogeneous(rng, sp.table, rng.randrange(0, 3))
        if F.is_zero or G.is_zero:
            continue
        sign = 1 if (F.parity() * G.parity()) % 2 == 0 else -1
        lhs = poisson_bracket(F, G * H, sp)
        rhs = poisson_bracket(F, G, sp) * H + (G * poisson_bracket(F, H, sp)) * sign
        assert lhs == rhs


def test_graded_jacobi():
    rng = random.Random(404)
    sp = split_space(CH2, 2)
    for _ in range(10):
        F = rand_super_homogeneous(rng, sp.table, rng.randrange(0, 4))
        G = rand_super_homogeneous(rng, sp.table, rng.randrange(0, 4))
        H = rand_super_homogeneous(rng, sp.table, rng.randrange(0, 4))
        if F.is_zero or G.is_zero:
            continue
        sign = 1 if (F.parity() * G.parity()) % 2 == 0 else -1
        lhs = poisson_bracket(F, poisson_bracket(G, H, sp), sp)
        rhs = poisson_bracket(poisson_bracket(F, G, sp), H, sp) + poisson_bracket(
            G, poisson_bracket(F, H, sp), sp
        ) * sign
        assert lhs == rhs


def test_algebroid_hamiltonian_values():
    aff = SkewAlgebroid(CH1, 2, {(1, 2, 2): 1}, {})
    sp = split_space(CH1, 2)
    mu = algebroid_hamiltonian(aff, sp)
    assert mu.value == -ps(sp, "y1*y2*xi2")
    assert poisson_bracket(gen(sp, "xi1"), mu.value, sp) == -ps(sp, "y2*xi2")
    assert poisson_bracket(gen(sp, "xi2"), mu.value, sp) == ps(sp, "y1*xi2")
    tm = tangent(CH2)
    sp2 = split_space(CH2, 2)
    mu2 = algebroid_hamiltonian(tm, sp2)
    assert mu2.value == -(ps(sp2, "y1*p1") + ps(sp2, "y2*p2"))
    with pytest.raises(ValueError):
        algebroid_hamiltonian(tm, split_space(CH2, 3))


def test_frame_brackets_and_anchor():
    rng = random.Random(405)
    so3 = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}, {})
    for A in (so3, tangent(CH2), rand_lie(rng, CH2), rand_skew(rng, CH2, 3)):
        sp = split_space(A.chart, A.rank)
        mu = algebroid_hamiltonian(A, sp)
        for i in range(1, A.rank + 1):
            for j in range(1, A.rank + 1):
                got = derived_bracket(gen(sp, sp.xi_name(i)), gen(sp, sp.xi_name(j)), mu)
                want = SuperPoly.zero(sp.table)
                for k in range(1, A.rank + 1):
                    want = want + c_at(A, i, j, k) * gen(sp, sp.xi_name(k))
                assert got == want
            for a, x_name in enumerate(A.chart.names, start=1):
                f = SuperPoly.from_scalar(sp.table, ScalarField.coord(A.chart, x_name))
                got = anchor_apply(gen(sp, sp.xi_name(i)), f, mu)
                assert got == SuperPoly.from_scalar(sp.table, rho_at(A, i, a))


def test_derived_bracket_matches_section_bracket():
    rng = random.Random(406)
    for _ in range(6):
        A = rand_skew(rng, CH2, rng.randrange(2, 4))
        sp = split_space(A.chart, A.rank)
        mu = algebroid_hamiltonian(A, sp)
        X = A.section([rand_scalar_for(rng, A.chart) for _ in range(A.rank)])
        Y = A.section([rand_scalar_for(rng, A.chart) for _ in range(A.rank)])
        got = derived_bracket(lift_section(A, sp, X), lift_section(A, sp, Y), mu)
        assert section_of(A, sp, got) == bracket_sections(A, X, Y)


def rand_scalar_for(rng, chart):
    from genlib import rand_poly

    return rand_poly(rng, chart, deg=1)


def test_sums_of_products_run_no_binary_addition(monkeypatch):
    """Poisson brackets, {H, H}, SuperPoly products and section brackets
    sum each coefficient's products in one scalar.sum_products call: on a
    sparse rational algebroid of the benchmark's srat_r3 shape, no binary
    ScalarField addition runs inside them. Every +, - and their reflected
    forms go through ScalarField._plus, which is counted."""
    A = sparse_rational_skew(random.Random(433), CH3, 3)
    H = algebroid_hamiltonian(A)
    space = H.space
    x1, x2, x3 = (ScalarField.coord(CH3, name) for name in CH3.names)
    X = ((1 + x1) / (5 + x2), x3, ScalarField.zero(CH3))
    Y = (x2 / (6 + x3), ScalarField.zero(CH3), (2 - x1) / (5 + x2))
    G = poisson_bracket(H.value, SuperPoly.generator(space.table, space.xi_name(1)), space)
    M = parse_super("(1 + x1)*xi1 + x3*p1 - 2*xi2", space.table) / (5 + x2)
    expected = {
        "bracket": poisson_bracket_oracle(H.value, G, space),
        "square": poisson_bracket_oracle(H.value, H.value, space),
        "product": SuperPoly(space.table, _term_product(G.terms, M.terms)),
        "sections": bracket_sections_oracle(A, X, Y),
    }
    additions = []
    plus = ScalarField._plus
    monkeypatch.setattr(ScalarField, "_plus", lambda self, k, o: additions.append(o) or plus(self, k, o))
    got = {
        "bracket": poisson_bracket(H.value, G, space),
        "square": hamiltonian_square(H),
        "product": G * M,
        "sections": bracket_sections(A, X, Y),
    }
    assert additions == []
    monkeypatch.undo()
    assert got == expected
    assert not got["square"].is_zero and not got["product"].is_zero


def test_square_iff_lie():
    rng = random.Random(407)
    nonlie = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (1, 3, 1): 1}, {})
    pool = [
        nonlie,
        tangent(CH2),
        SkewAlgebroid(CH1, 2, {(1, 2, 2): 1}, {}),
        rand_lie(rng, CH2),
    ]
    pool.extend(rand_skew(rng, CH2, rng.randrange(2, 4)) for _ in range(6))
    for A in pool:
        sq = hamiltonian_square(algebroid_hamiltonian(A))
        assert sq.is_zero == is_lie(A)[0]


def test_square_and_generator_brackets_skip_what_pairs_with_nothing(monkeypatch):
    products, partials = [], []
    add_product = courant._add_product
    partial = ScalarField.partial

    def counting_product(*args, **kwargs):
        products.append(args)
        return add_product(*args, **kwargs)

    def counting_partial(self, a):
        partials.append(self)
        return partial(self, a)

    monkeypatch.setattr(courant, "_add_product", counting_product)
    monkeypatch.setattr(ScalarField, "partial", counting_partial)
    rng = random.Random(413)
    anchorless = SkewAlgebroid(CH3, 3, {(1, 2, 3): parse_scalar("x1", CH3) / parse_scalar("x2 + 5", CH3)}, {})
    for A in (dense_rational_skew(rng, CH3, 3), dense_rational_skew(rng, CH4, 2), anchorless):
        H = algebroid_hamiltonian(A)
        space = H.space
        products.clear()
        square = hamiltonian_square(H)
        # one product per coordinate and one per pair (y^i, xi_i)
        assert len(products) <= A.chart.m + A.rank
        assert square == poisson_bracket_oracle(H.value, H.value, space)
        # {H, x1} and {H, y1} differentiate H by no coordinate: G has no momentum
        coefficients = {id(c) for c in H.value.terms.values()}
        for name in (space.chart.names[0], space.y_name(1)):
            G = SuperPoly.generator(space.table, name)
            partials.clear()
            poisson_bracket(H.value, G, space)
            assert not [c for c in partials if id(c) in coefficients]
            assert len(partials) <= A.chart.m
            if not A.rho:
                assert partials == []


def test_dorfman_classical_values():
    sp = split_space(CH2, 2)
    H = algebroid_hamiltonian(tangent(CH2), sp)
    x1, x2 = embed(sp, "x1"), embed(sp, "x2")
    xi1, xi2 = gen(sp, "xi1"), gen(sp, "xi2")
    y1, y2 = gen(sp, "y1"), gen(sp, "y2")
    assert derived_bracket(x2 * xi1, xi2, H) == -xi1
    assert derived_bracket(xi1, x1 * y2, H) == y2
    assert derived_bracket(x2 * y1, xi2, H) == -y1
    # forms bracket to zero, and constant vectors commute
    assert derived_bracket(y1, x1 * y2, H).is_zero
    assert derived_bracket(xi1, xi2, H).is_zero


def test_twisted_standard_courant():
    sp = split_space(CH3, 3)
    tm = tangent(CH3)
    rho = {(i, i): 1 for i in (1, 2, 3)}
    H = standard_hamiltonian(sp, rho, {(1, 2, 3): parse_scalar("x1", CH3)})
    assert H.value == algebroid_hamiltonian(tm, sp).value - ps(sp, "x1*y1*y2*y3")
    assert hamiltonian_square(H).is_zero
    # the cubic part enters the bracket of two vector lifts as a 1-form
    assert derived_bracket(gen(sp, "xi1"), gen(sp, "xi2"), H) == ps(sp, "x1*y3")
    assert derived_bracket(gen(sp, "xi2"), gen(sp, "xi1"), H) == -ps(sp, "x1*y3")


def test_nonclosed_twist_obstruction():
    sp = split_space(CH4, 4)
    rho = {(i, i): 1 for i in range(1, 5)}
    H = standard_hamiltonian(sp, rho, {(1, 2, 3): parse_scalar("x4", CH4)})
    assert hamiltonian_square(H) == ps(sp, "2*y1*y2*y3*y4")


def test_loday_identity_and_failure():
    rng = random.Random(409)
    sp = split_space(CH3, 3)
    rho = {(i, i): 1 for i in (1, 2, 3)}
    H = standard_hamiltonian(sp, rho, {(1, 2, 3): parse_scalar("x1", CH3)})
    assert hamiltonian_square(H).is_zero
    for _ in range(8):
        X = rand_super_homogeneous(rng, sp.table, 1)
        Y = rand_super_homogeneous(rng, sp.table, 1)
        Z = rand_super_homogeneous(rng, sp.table, 1)
        lhs = derived_bracket(X, derived_bracket(Y, Z, H), H)
        rhs = derived_bracket(derived_bracket(X, Y, H), Z, H) + derived_bracket(
            Y, derived_bracket(X, Z, H), H
        )
        assert lhs == rhs
    nonlie = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (1, 3, 1): 1}, {})
    spn = split_space(CH1, 3)
    mu = algebroid_hamiltonian(nonlie, spn)
    e = [gen(spn, spn.xi_name(i)) for i in (1, 2, 3)]
    defect = derived_bracket(e[0], derived_bracket(e[1], e[2], mu), mu)
    defect = defect - derived_bracket(derived_bracket(e[0], e[1], mu), e[2], mu)
    defect = defect - derived_bracket(e[1], derived_bracket(e[0], e[2], mu), mu)
    frames = [A_frame(nonlie, i) for i in range(1, 4)]
    jac = bracket_sections(nonlie, bracket_sections(nonlie, frames[0], frames[1]), frames[2])
    jac = add_sections(
        nonlie, jac, bracket_sections(nonlie, bracket_sections(nonlie, frames[1], frames[2]), frames[0])
    )
    jac = add_sections(
        nonlie, jac, bracket_sections(nonlie, bracket_sections(nonlie, frames[2], frames[0]), frames[1])
    )
    assert not defect.is_zero
    assert defect == -lift_section(nonlie, spn, jac)


def A_frame(A, i):
    return A.frame_section(i)


def add_sections(A, X, Y):
    return tuple(x + y for x, y in zip(X, Y))


def test_courant_leibniz_with_anchor():
    rng = random.Random(410)
    sp = split_space(CH2, 2)
    rho = {(i, i): 1 for i in (1, 2)}
    H = standard_hamiltonian(sp, rho, {})
    for _ in range(8):
        X = rand_super_homogeneous(rng, sp.table, 1)
        Y = rand_super_homogeneous(rng, sp.table, 1)
        f = SuperPoly.from_scalar(sp.table, rand_scalar_for(rng, CH2))
        lhs = derived_bracket(X, f * Y, H)
        rhs = anchor_apply(X, f, H) * Y + f * derived_bracket(X, Y, H)
        assert lhs == rhs
        # left slot picks up anchor and pairing corrections
        lhs2 = derived_bracket(f * X, Y, H)
        pairing = poisson_bracket(X, Y, sp)
        Df = poisson_bracket(H.value, f, sp)
        rhs2 = f * derived_bracket(X, Y, H) + pairing * Df - anchor_apply(Y, f, H) * X
        assert lhs2 == rhs2


def test_invariance_of_pairing():
    rng = random.Random(411)
    sp = split_space(CH2, 2)
    H = algebroid_hamiltonian(tangent(CH2), sp)
    for _ in range(8):
        X = rand_super_homogeneous(rng, sp.table, 1)
        Y = rand_super_homogeneous(rng, sp.table, 1)
        Z = rand_super_homogeneous(rng, sp.table, 1)
        pair = poisson_bracket(Y, Z, sp)
        lhs = anchor_apply(X, pair, H)
        rhs = poisson_bracket(derived_bracket(X, Y, H), Z, sp) + poisson_bracket(
            Y, derived_bracket(X, Z, H), sp
        )
        assert lhs == rhs


def test_standard_hamiltonian_structure_constants():
    sp = SymplecticSpace2(CH1, ("z1", "z2", "z3"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    phi = {(1, 2, 3): parse_scalar("x1", CH1)}
    H = standard_hamiltonian(sp, {}, phi)
    f123 = SuperPoly.from_scalar(sp.table, parse_scalar("x1", CH1))
    triples = [((1, 2, 3), f123), ((2, 3, 1), f123), ((3, 1, 2), f123), ((2, 1, 3), -f123)]
    for (i, j, k), want in triples:
        br = derived_bracket(gen(sp, f"z{i}"), gen(sp, f"z{j}"), H)
        assert poisson_bracket(br, gen(sp, f"z{k}"), sp) == want
    with pytest.raises(ValueError):
        standard_hamiltonian(sp, {}, {(2, 1, 3): 1})


def test_hamiltonian_validation():
    sp = split_space(CH1, 1)
    with pytest.raises(ValueError):
        Hamiltonian(sp, gen(sp, "y1"))
    zero_h = Hamiltonian(sp, SuperPoly.zero(sp.table))
    assert hamiltonian_square(zero_h).is_zero
    assert is_projectable(zero_h)
    proj = project_to_E(zero_h)
    assert proj.de_rham_field().is_zero
    assert proj.c == {} and proj.rho == {}


def test_bidegree_split_partition():
    sp = split_space(CH3, 3)
    x1 = parse_scalar("x1", CH3)
    mu_part = -ps(sp, "y1*y2*xi3") - ps(sp, "y1*p1")
    gamma_part = ps(sp, "x1*xi1*xi2*y1") + ps(sp, "xi2*p3")
    phi_part = ps(sp, "x1*y1*y2*y3")
    psi_part = -ps(sp, "xi1*xi2*xi3")
    H = Hamiltonian(sp, mu_part + gamma_part + phi_part + psi_part)
    parts = bidegree_split(H)
    assert parts.mu.value == mu_part
    assert parts.gamma.value == gamma_part
    assert parts.phi.value == phi_part
    assert parts.psi.value == psi_part
    total = parts.mu.value + parts.gamma.value + parts.phi.value + parts.psi.value
    assert total == H.value
    flat = SymplecticSpace2(CH1, ("z1",), [[1]])
    with pytest.raises(ValueError):
        bidegree_split(Hamiltonian(flat, SuperPoly.zero(flat.table)))


def test_projectability():
    sp = split_space(CH3, 3)
    tm = tangent(CH3)
    mu = algebroid_hamiltonian(tm, sp)
    assert is_projectable(mu)
    twisted = Hamiltonian(sp, mu.value - ps(sp, "x1*y1*y2*y3"))
    assert is_projectable(twisted)
    bad_gamma = Hamiltonian(sp, mu.value + ps(sp, "xi1*xi2*y1"))
    assert not is_projectable(bad_gamma)
    bad_psi = Hamiltonian(sp, mu.value + ps(sp, "xi1*xi2*xi3"))
    assert not is_projectable(bad_psi)
    with pytest.raises(ValueError):
        project_to_E(bad_gamma)


def test_project_round_trip():
    rng = random.Random(412)
    pool = [tangent(CH2), SkewAlgebroid(CH1, 2, {(1, 2, 2): 1}, {}), rand_lie(rng, CH2)]
    pool.extend(rand_skew(rng, CH2, rng.randrange(2, 4)) for _ in range(4))
    for A in pool:
        H = algebroid_hamiltonian(A)
        proj = project_to_E(H)
        assert proj.de_rham_field() == A.de_rham_field()
        assert proj.c == A.c
        assert proj.rho == A.rho
        assert hamiltonian_square(H).is_zero == is_lie(A)[0]
    # a projectable twist leaves the projected data alone but keeps its square
    sp = split_space(CH4, 4)
    rho = {(i, i): 1 for i in range(1, 5)}
    H = standard_hamiltonian(sp, rho, {(1, 2, 3): parse_scalar("x4", CH4)})
    proj = project_to_E(H)
    assert proj.c == {}
    assert not hamiltonian_square(H).is_zero


def test_projectability_consistency_error_carries_both_verdicts(monkeypatch):
    """A planted error in the field route: the error names the check and
    carries the bidegree verdict and the field verdict, in that order."""
    H = algebroid_hamiltonian(tangent(CH2), split_space(CH2, 2))
    monkeypatch.setattr(courant, "poisson_bracket", lambda F, G, space: gen(space, space.zeta[-1]))
    with pytest.raises(InternalConsistencyError, match="projectability criteria disagree") as err:
        is_projectable(H)
    assert err.value.check == "projectability"
    assert err.value.values == (True, False)
