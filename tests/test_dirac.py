"""Bivector graphs, gauge flows, twists, induced brackets, relative classes."""

import random
import types
from collections import Counter
from fractions import Fraction

import pytest

from algebroids import algebroid, courant, dirac
from algebroids.algebroid import AlgebroidMorphism, SkewAlgebroid, bracket_sections, is_morphism
from algebroids.courant import (
    Hamiltonian,
    algebroid_hamiltonian,
    bidegree_split,
    hamiltonian_square,
    poisson_bracket,
    project_to_E,
    split_space,
)
from algebroids.dirac import (
    Bivector,
    DiracFrame,
    gauge_transform,
    graph_frame,
    induced_algebroid,
    quasi_poisson_check,
    relative_modular_class,
    sharp_substitution,
    solve_twist,
    twisted_bracket,
    twisted_hamiltonian,
    verify_morphism_cor53,
)
from algebroids.errors import DiracClosureError, InternalConsistencyError
from algebroids.modular import modular_class_of_morphism, modular_cocycle
from algebroids.scalar import BaseChart, ScalarField, parse_scalar
from algebroids.superalg import SuperPoly, parse_super

from genlib import (
    quasi_poisson_instances,
    rand_bivector,
    rand_lie,
    rand_poly,
    rand_super_homogeneous,
)
from oracles import bivector_at, poisson_bracket_oracle

CH1 = BaseChart(("x1",))
CH2 = BaseChart(("x1", "x2"))
CH3 = BaseChart(("x1", "x2", "x3"))
CH4 = BaseChart(("x1", "x2", "x3", "x4"))


def tangent(chart):
    m = chart.m
    return SkewAlgebroid(chart, m, {}, {(a, a): 1 for a in range(1, m + 1)})


TM2 = tangent(CH2)
TM3 = tangent(CH3)
TM4 = tangent(CH4)
SO3 = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}, {})
AFF1 = SkewAlgebroid(CH1, 2, {(1, 2, 2): 1}, {})

SP2 = split_space(CH2, 2)
SP4 = split_space(CH4, 4)


def sp(space, text):
    return parse_super(text, space.table)


def x(chart, name):
    return ScalarField.coord(chart, name)


def mu_ham(A, space):
    return algebroid_hamiltonian(A, space)


def book_bivector():
    return Bivector(SP4, {(1, 2): 1, (3, 4): ScalarField.one(CH4) + x(CH4, "x1")})


def test_bivector_basics():
    P = Bivector(SP2, {(1, 2): x(CH2, "x1")})
    assert bivector_at(P, 1, 2) == x(CH2, "x1")
    assert bivector_at(P, 2, 1) == -x(CH2, "x1")
    assert bivector_at(P, 1, 1).is_zero
    assert P.value == sp(SP2, "x1*xi1*xi2")
    assert (-P).value == -P.value
    one = ScalarField.one(CH2)
    zero = ScalarField.zero(CH2)
    assert P.sharp((one, zero)) == (zero, x(CH2, "x1"))
    assert P.pairing((one, zero), (zero, one)) == x(CH2, "x1")
    assert P.pairing((one, zero), (one, zero)).is_zero
    with pytest.raises(ValueError):
        Bivector(SP2, {(2, 1): 1})
    with pytest.raises(ValueError):
        Bivector(SP2, {(1, 3): 1})


def test_graph_frame_values():
    zero_frame = graph_frame(Bivector(SP2, {}))
    assert zero_frame.sections == (sp(SP2, "y1"), sp(SP2, "y2"))
    D = graph_frame(Bivector(SP2, {(1, 2): 1}))
    assert D.sections == (sp(SP2, "y1 + xi2"), sp(SP2, "y2 - xi1"))
    assert D.is_graph()
    assert D.bivector().entries == {(1, 2): ScalarField.one(CH2)}


def test_graph_frame_random_isotropy():
    rng = random.Random(701)
    for _ in range(8):
        chart = rng.choice([CH2, CH3])
        n = rng.randrange(2, 5)
        space = split_space(chart, n)
        P = rand_bivector(rng, space)
        D = graph_frame(P)
        for a in range(n):
            for b in range(a, n):
                assert poisson_bracket(D.sections[a], D.sections[b], space).is_zero


def test_frame_validation():
    y1 = sp(SP2, "y1")
    with pytest.raises(ValueError, match="frame members"):
        DiracFrame(SP2, (y1,))
    with pytest.raises(ValueError, match="degree 1"):
        DiracFrame(SP2, (y1, sp(SP2, "y1*y2")))
    with pytest.raises(ValueError, match="isotropic"):
        DiracFrame(SP2, (sp(SP2, "y1 + xi1"), sp(SP2, "y2")))
    with pytest.raises(ValueError, match="rank"):
        DiracFrame(SP2, (y1, sp(SP2, "x1*y1")))
    with pytest.raises(ValueError, match="table"):
        DiracFrame(SP2, (y1, parse_super("y2", TM2.table())))
    # the E-frame itself is isotropic and full rank
    D = DiracFrame(SP2, (sp(SP2, "xi1"), sp(SP2, "xi2")))
    assert not D.is_graph()
    with pytest.raises(ValueError, match="graph"):
        D.bivector()


def test_gauge_transform_values():
    P = Bivector(SP2, {(1, 2): x(CH2, "x1")})
    inert = sp(SP2, "x2*xi1*xi2 + xi1")
    assert gauge_transform(inert, P) == inert
    assert gauge_transform(sp(SP2, "y1"), P) == sp(SP2, "y1 - x1*xi2")
    assert gauge_transform(sp(SP2, "y2"), P) == sp(SP2, "y2 + x1*xi1")
    rng = random.Random(702)
    for _ in range(6):
        n = rng.randrange(2, 4)
        space = split_space(CH2, n)
        Q = rand_bivector(rng, space)
        D = graph_frame(Q)
        flows = tuple(
            gauge_transform(SuperPoly.generator(space.table, space.y_name(a)), -Q)
            for a in range(1, n + 1)
        )
        assert flows == D.sections


def test_gauge_transform_is_algebra_morphism():
    rng = random.Random(703)
    space = split_space(CH2, 2)
    for _ in range(6):
        P = rand_bivector(rng, space)
        F = rand_super_homogeneous(rng, space.table, rng.randrange(1, 3))
        G = rand_super_homogeneous(rng, space.table, rng.randrange(1, 3))
        assert gauge_transform(F * G, P) == gauge_transform(F, P) * gauge_transform(G, P)
        assert gauge_transform(F + G, P) == gauge_transform(F, P) + gauge_transform(G, P)


def test_gauge_transform_truncates_cubics():
    rng = random.Random(704)
    space = split_space(CH2, 2)
    P = rand_bivector(rng, space)
    H = mu_ham(TM2, space).value
    total = SuperPoly.zero(space.table)
    term = H
    weight = Fraction(1)
    for k in range(4):
        if k:
            term = poisson_bracket(P.value, term, space)
            weight = weight / k
        total = total + term * weight
    assert gauge_transform(H, P) == total


def test_sharp_substitution_book_value():
    P = book_bivector()
    mono = sp(SP4, "y1*y3*y4")
    g = ScalarField.one(CH4) + x(CH4, "x1")
    assert sharp_substitution(P, mono) == (g * g) * sp(SP4, "xi2*xi3*xi4")
    # substitution is an algebra morphism on the y generators
    assert sharp_substitution(P, sp(SP4, "y1")) == sp(SP4, "xi2")
    assert sharp_substitution(P, sp(SP4, "y2")) == -sp(SP4, "xi1")


def test_quasi_poisson_fixed_cases():
    for entry in ({(1, 2): 1}, {(1, 2): x(CH2, "x1")}):
        P = Bivector(SP2, entry)
        ok, obstruction = quasi_poisson_check(P, mu_ham(TM2, SP2))
        assert ok and obstruction.is_zero
    # the rational rank-4 bivector without its twist fails, with the
    # obstruction pinned by the multivector-bracket oracle
    P = book_bivector()
    ok, obstruction = quasi_poisson_check(P, mu_ham(TM4, SP4))
    assert not ok
    assert obstruction == sp(SP4, "xi2*xi3*xi4")


def test_quasi_poisson_catalog_instances():
    rng = random.Random(705)
    instances = quasi_poisson_instances(rng)
    assert len(instances) >= 10
    for A, P, H in instances:
        ok, obstruction = quasi_poisson_check(P, H)
        assert ok and obstruction.is_zero


def test_quasi_poisson_input_errors():
    P = Bivector(SP2, {(1, 2): 1})
    bad = Hamiltonian(SP2, sp(SP2, "xi1*xi2*y1"))
    with pytest.raises(ValueError, match="projectable"):
        quasi_poisson_check(P, bad)
    with pytest.raises(ValueError, match="different spaces"):
        quasi_poisson_check(P, mu_ham(TM4, SP4))


def test_obstruction_paths_on_random_data():
    # the internal cross-check is the assertion: restriction of the gauge
    # flow must match the multivector-bracket expression for any skew data
    rng = random.Random(706)
    for _ in range(10):
        n = rng.randrange(2, 4)
        space = split_space(CH2, n)
        A = rng.choice([rand_lie(rng, CH2), tangent(CH2) if n == 2 else rand_lie(rng, CH2)])
        if A.rank != n:
            A = SkewAlgebroid(CH2, n, {}, {(1, 1): rand_poly(rng, CH2, deg=1)})
        phi = rand_super_homogeneous(rng, A.table(), 3) if n >= 3 else SuperPoly.zero(A.table())
        from algebroids.superalg import transport

        H = Hamiltonian(space, mu_ham(A, space).value + transport(phi, space.table))
        P = rand_bivector(rng, space)
        quasi_poisson_check(P, H)


def test_solve_twist():
    P = book_bivector()
    phi = solve_twist(P, TM4)
    g = ScalarField.one(CH4) + x(CH4, "x1")
    expected = (ScalarField.one(CH4) / (g * g)) * sp(SP4, "y1*y3*y4")
    assert phi == expected
    # rank 2 has no room for a cubic: the zero form works
    assert solve_twist(Bivector(SP2, {(1, 2): x(CH2, "x1")}), TM2).is_zero
    # degenerate sharp map with a nonzero bracket square: no solution
    sp3 = split_space(CH3, 3)
    bad = Bivector(sp3, {(1, 2): x(CH3, "x1"), (1, 3): 1})
    assert solve_twist(bad, TM3) is None
    ok, obstruction = quasi_poisson_check(bad, mu_ham(TM3, sp3))
    assert not ok and not obstruction.is_zero


def test_twisted_hamiltonian_koszul_frozen():
    P = Bivector(SP2, {(1, 2): x(CH2, "x1")})
    tw = twisted_hamiltonian(P, mu_ham(TM2, SP2))
    assert tw.value == sp(SP2, "x1*xi2*p1 - x1*xi1*p2 - xi1*xi2*y1")
    assert tw.algebroid.c == {(1, 2, 1): ScalarField.one(CH2)}
    assert tw.algebroid.rho == {(1, 2): x(CH2, "x1"), (2, 1): -x(CH2, "x1")}
    assert tw.algebroid.is_lie()


def test_twisted_hamiltonian_zero_bivector():
    space = split_space(CH1, 3)
    P = Bivector(space, {})
    tw = twisted_hamiltonian(P, mu_ham(SO3, space))
    assert tw.value.is_zero
    assert tw.algebroid.c == {} and tw.algebroid.rho == {}


def test_twisted_hamiltonian_instances_are_lie():
    rng = random.Random(707)
    for A, P, H in quasi_poisson_instances(rng):
        tw = twisted_hamiltonian(P, H)
        assert tw.algebroid.is_lie()


def test_twisted_hamiltonian_precondition():
    with pytest.raises(ValueError, match="obstruction"):
        twisted_hamiltonian(book_bivector(), mu_ham(TM4, SP4))


def test_twisted_bracket_koszul_frozen():
    P = Bivector(SP2, {(1, 2): x(CH2, "x1")})
    H = mu_ham(TM2, SP2)
    table = TM2.table()
    e1 = parse_super("y1", table)
    e2 = parse_super("y2", table)
    assert twisted_bracket(P, H, e1, e2) == e1
    assert twisted_bracket(P, H, e2, e1) == -e1
    assert twisted_bracket(P, H, e1, e1).is_zero
    # tuple input encodes the same covectors
    one = ScalarField.one(CH2)
    zero = ScalarField.zero(CH2)
    assert twisted_bracket(P, H, (one, zero), (zero, one)) == e1


def test_twisted_bracket_zero_bivector():
    space = split_space(CH1, 3)
    P = Bivector(space, {})
    H = mu_ham(SO3, space)
    table = SO3.table()
    for i in ("y1", "y2", "y3"):
        for j in ("y1", "y2", "y3"):
            assert twisted_bracket(P, H, parse_super(i, table), parse_super(j, table)).is_zero


def test_twisted_bracket_instances():
    rng = random.Random(708)
    for A, P, H in quasi_poisson_instances(rng):
        table = A.table()
        names = table.odd
        i, j = rng.randrange(A.rank), rng.randrange(A.rank)
        a = parse_super(names[i], table)
        b = parse_super(names[j], table)
        lhs = twisted_bracket(P, H, a, b)
        rhs = twisted_bracket(P, H, b, a)
        assert lhs == -rhs
    P = Bivector(SP2, {(1, 2): 1})
    with pytest.raises(ValueError, match="degree 1"):
        twisted_bracket(P, mu_ham(TM2, SP2), parse_super("y1*y2", TM2.table()), parse_super("y1", TM2.table()))


def test_induced_algebroid_e_frame():
    rng = random.Random(709)
    pool = [SO3, AFF1, TM2, rand_lie(rng, CH2)]
    for A in pool:
        space = split_space(A.chart, A.rank)
        frame = DiracFrame(
            space,
            tuple(
                SuperPoly.generator(space.table, space.xi_name(i))
                for i in range(1, A.rank + 1)
            ),
        )
        ind = induced_algebroid(frame, mu_ham(A, space))
        assert ind.c == A.c
        assert ind.rho == A.rho


def test_induced_graph_matches_twisted():
    rng = random.Random(710)
    for A, P, H in quasi_poisson_instances(rng):
        ind = induced_algebroid(graph_frame(P), H)
        tw = twisted_hamiltonian(P, H)
        assert ind.c == tw.algebroid.c
        assert ind.rho == tw.algebroid.rho
        assert ind.is_lie()


def test_induced_closure_failure():
    P = book_bivector()
    D = graph_frame(P)
    with pytest.raises(DiracClosureError) as err:
        induced_algebroid(D, mu_ham(TM4, SP4))
    assert err.value.pair in {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    assert not err.value.residual.is_zero


def test_relative_modular_e_frame_is_zero():
    rng = random.Random(711)
    for A in [SO3, AFF1, rand_lie(rng, CH2)]:
        space = split_space(A.chart, A.rank)
        frame = DiracFrame(
            space,
            tuple(
                SuperPoly.generator(space.table, space.xi_name(i))
                for i in range(1, A.rank + 1)
            ),
        )
        rel = relative_modular_class(frame, mu_ham(A, space))
        assert rel.is_zero


def test_relative_modular_koszul_frozen():
    # cotangent-side class of the rank-2 linear bivector is twice the
    # divergence class of its sharp image; the base class vanishes
    P = Bivector(SP2, {(1, 2): x(CH2, "x1")})
    rel = relative_modular_class(graph_frame(P), mu_ham(TM2, SP2))
    assert rel.value == parse_super("-2*y2", rel.algebroid.table())


def test_relative_modular_constant_symplectic_zero():
    P = Bivector(SP2, {(1, 2): 1})
    rel = relative_modular_class(graph_frame(P), mu_ham(TM2, SP2))
    assert rel.is_zero


def test_relative_modular_affine_cancellation():
    # both summands are nonzero but cancel: the twisted class is -x1*y2
    # while the pulled-back base class contributes +x1*y2
    space = split_space(CH1, 2)
    P = Bivector(space, {(1, 2): x(CH1, "x1")})
    H = mu_ham(AFF1, space)
    tw = twisted_hamiltonian(P, H)
    assert not modular_cocycle(tw.algebroid).is_zero
    assert not modular_cocycle(AFF1).is_zero
    rel = relative_modular_class(graph_frame(P), H)
    assert rel.is_zero


def test_relative_modular_instances():
    rng = random.Random(712)
    for A, P, H in quasi_poisson_instances(rng):
        rel = relative_modular_class(graph_frame(P), H)
        assert rel.algebroid.c == twisted_hamiltonian(P, H).algebroid.c


def test_verify_cor53():
    cases = [
        (Bivector(split_space(CH1, 3), {}), mu_ham(SO3, split_space(CH1, 3))),
        (Bivector(SP2, {(1, 2): x(CH2, "x1")}), mu_ham(TM2, SP2)),
        (Bivector(SP2, {(1, 2): 1}), mu_ham(TM2, SP2)),
    ]
    for P, H in cases:
        ok, certificate = verify_morphism_cor53(P, H)
        assert ok and certificate is None
    rng = random.Random(713)
    for A, P, H in quasi_poisson_instances(rng):
        ok, certificate = verify_morphism_cor53(P, H)
        assert ok and certificate is None


def test_bfield_frame_induces_base_structure():
    # graph of a closed 2-form over E: closes, projects isomorphically,
    # and carries a vanishing relative class
    D = DiracFrame(SP2, (sp(SP2, "xi1 + x1*y2"), sp(SP2, "xi2 - x1*y1")))
    H = mu_ham(TM2, SP2)
    ind = induced_algebroid(D, H)
    assert ind.c == {}
    assert ind.rho == TM2.rho
    rel = relative_modular_class(D, H)
    assert rel.is_zero


def test_one_projection_per_hamiltonian(monkeypatch):
    """The Dirac chain shares the one projection courant derives per H:
    each projectability bracket {H, x^a}, {H, y^i} runs a single time."""
    H = mu_ham(TM2, SP2)
    P = Bivector(SP2, {(1, 2): x(CH2, "x1")})
    generators = {n: SuperPoly.generator(SP2.table, n) for n in ("x1", "x2", "y1", "y2")}
    runs = Counter()
    bracket = courant.poisson_bracket

    def counting(F, G, space):
        if F is H.value:
            runs.update(n for n, g in generators.items() if G == g)
        return bracket(F, G, space)

    monkeypatch.setattr(courant, "poisson_bracket", counting)
    assert project_to_E(H) is project_to_E(H)
    assert quasi_poisson_check(P, H)[0]
    twisted_bracket(P, H, (1, 0), (0, 1))
    relative_modular_class(graph_frame(P), H)
    assert verify_morphism_cor53(P, H)[0]
    assert runs == Counter(generators.keys())


def test_one_derivation_per_input(monkeypatch):
    """The twisted structure is derived once per (P, H), even for the equal
    bivector read back off a graph frame; the bidegree split once per H; and
    a morphism's verdict once per morphism."""
    P = book_bivector()
    H = Hamiltonian(SP4, mu_ham(TM4, SP4).value + solve_twist(P, TM4))
    flows = []
    flow = dirac.gauge_transform

    def counting_flow(F, Q):
        flows.append(Q)
        return flow(F, Q)

    monkeypatch.setattr(dirac, "gauge_transform", counting_flow)
    assert quasi_poisson_check(P, H)[0]
    twisted_bracket(P, H, (1, 0, 0, 0), (0, 1, 0, 0))
    relative_modular_class(graph_frame(P), H)
    assert verify_morphism_cor53(P, H)[0]
    assert flows == [P]
    assert bidegree_split(H) is bidegree_split(H)

    pullbacks = []
    pull = algebroid.pullback

    def counting_pullback(phi, omega):
        pullbacks.append(omega)
        return pull(phi, omega)

    monkeypatch.setattr(algebroid, "pullback", counting_pullback)
    matrix = {(i, j): bivector_at(P, i, j) for i in range(1, 5) for j in range(1, 5)}
    phi = AlgebroidMorphism(twisted_hamiltonian(P, H).algebroid, project_to_E(H), matrix)
    assert is_morphism(phi)[0]
    checked = len(pullbacks)
    assert checked > 0
    modular_class_of_morphism(phi)
    assert is_morphism(phi)[0]
    assert len(pullbacks) == checked


def test_bivector_value_built_once(monkeypatch):
    """One quasi_poisson_check builds the quadratic element of its bivector
    once, though the gauge series reads it once per term."""
    H = Hamiltonian(SP4, mu_ham(TM4, SP4).value + solve_twist(book_bivector(), TM4))
    builds = []
    build = Bivector._quadratic

    def counting(P):
        builds.append(P)
        return build(P)

    monkeypatch.setattr(Bivector, "_quadratic", counting)
    P = book_bivector()
    assert quasi_poisson_check(P, H)[0]
    assert builds == [P]
    assert P.value is P.value
    assert P.value == sp(SP4, "xi1*xi2 + (1 + x1)*xi3*xi4")
    assert (-P).value == -P.value


def _oracle_gauge_series(P, F) -> list:
    """The terms (1/k!) ad_P^k F of exp(ad_P) F, up to the first zero one,
    each bracket taken by the oracle."""
    terms = [F]
    while not terms[-1].is_zero:
        terms.append(poisson_bracket_oracle(P.value, terms[-1], P.space) * Fraction(1, len(terms)))
    return terms


def test_twist_parts_match_oracle_series():
    """The obstruction is the y = p = 0 part of exp(ad_P) H, and the twisted
    generator is {P, mu} + 1/2 {P, {P, phi}}, both from oracle brackets, on
    the frozen tm2 and book cases and on seeded rank 3-4 pairs."""
    heis = SkewAlgebroid(CH2, 3, {(1, 2, 3): 1}, {})
    cases = [(TM2, Bivector(SP2, {(1, 2): x(CH2, "x1")})), (TM4, book_bivector())]
    rng = random.Random(714)
    for _ in range(6):
        A = rng.choice([TM3, heis, SO3, TM4, TM4])
        cases.append((A, rand_bivector(rng, split_space(A.chart, A.rank))))
    twisted = 0
    for A, P in cases:
        space = P.space
        n = space.split_rank
        mu = mu_ham(A, space).value
        phi = solve_twist(P, A)
        cubics = [SuperPoly.zero(space.table)]
        if phi is not None and not phi.is_zero:
            cubics.append(phi)
        for cubic in cubics:
            H = Hamiltonian(space, mu + cubic)
            flow = sum(_oracle_gauge_series(P, H.value)[1:], H.value)
            pure_xi = {
                key: f for key, f in flow.terms.items() if min(key[0], default=n) >= n and not any(key[1])
            }
            ok, obstruction = quasi_poisson_check(P, H)
            assert obstruction == SuperPoly(space.table, pure_xi)
            if ok:
                inner = poisson_bracket_oracle(P.value, cubic, space)
                expected = poisson_bracket_oracle(P.value, mu, space) + poisson_bracket_oracle(
                    P.value, inner, space
                ) * Fraction(1, 2)
                assert twisted_hamiltonian(P, H).value == expected
                twisted += not cubic.is_zero
    assert twisted >= 2


def test_twist_and_anchor_take_no_extra_brackets(monkeypatch):
    """induced_algebroid brackets each member with H once and each pair of
    members once, reading the anchor off {D_a, H}; a first quasi_poisson_check
    on a fresh pair brackets only along the gauge series of H, whose bidegree
    parts give the twisted generator."""
    instances = quasi_poisson_instances(random.Random(715))
    lengths = [len(_oracle_gauge_series(P, H.value)) - 1 for _, P, H in instances]
    frames = [graph_frame(P) for _, P, _ in instances]
    calls = []
    bracket = dirac.poisson_bracket

    def counting(F, G, space):
        calls.append(F)
        return bracket(F, G, space)

    monkeypatch.setattr(dirac, "poisson_bracket", counting)
    for (A, P, H), D, length in zip(instances, frames, lengths):
        n = A.rank
        calls.clear()
        induced_algebroid(D, H)
        assert len(calls) == n + n * (n - 1) // 2
        calls.clear()
        assert quasi_poisson_check(P, Hamiltonian(H.space, H.value))[0]
        assert len(calls) == length
        assert all(F is P.value for F in calls)


def _fresh_tm2_pair():
    """The tangent algebroid of the plane with P = x1 e1^e2, built anew so
    that no memoised result skips a planted error."""
    A = tangent(CH2)
    space = split_space(CH2, 2)
    return A, mu_ham(A, space), Bivector(space, {(1, 2): x(CH2, "x1")})


def test_twist_obstruction_consistency_error_carries_both_forms(monkeypatch):
    """A planted error in the multivector route of the twist obstruction:
    the flowed obstruction comes first, the Schouten route second."""
    _, H, P = _fresh_tm2_pair()
    sharp = dirac.sharp_substitution
    monkeypatch.setattr(dirac, "sharp_substitution", lambda P, phi: sharp(P, phi) + sp(P.space, "xi1"))
    with pytest.raises(InternalConsistencyError, match="twist obstruction paths disagree") as err:
        quasi_poisson_check(P, H)
    assert err.value.check == "twist_obstruction"
    assert tuple(map(str, err.value.values)) == ("0", "-xi1")


def test_twisted_bracket_consistency_error_carries_both_forms(monkeypatch):
    """A planted error in the Cartan route: the derived bracket comes first,
    the Cartan formula second."""
    A, H, P = _fresh_tm2_pair()
    lie = dirac.lie_derivative_form
    monkeypatch.setattr(dirac, "lie_derivative_form", lambda A, X, form: lie(A, X, form) + form)
    alpha, beta = (parse_super(text, A.table()) for text in ("y1", "y2"))
    with pytest.raises(InternalConsistencyError, match="twisted bracket paths disagree") as err:
        twisted_bracket(P, H, alpha, beta)
    assert err.value.check == "twisted_bracket"
    assert tuple(map(str, err.value.values)) == ("y1", "y2")


def test_relative_class_consistency_error_carries_both_forms(monkeypatch):
    """A planted error in the morphism route of a graph frame's relative
    class: the morphism class comes first, the twisted dual route second."""
    _, H, P = _fresh_tm2_pair()
    relative = dirac.modular_class_of_morphism

    def shifted(phi):
        value = relative(phi).value
        return types.SimpleNamespace(value=value + SuperPoly.generator(value.table, "y1"))

    monkeypatch.setattr(dirac, "modular_class_of_morphism", shifted)
    with pytest.raises(InternalConsistencyError, match="relative class paths disagree") as err:
        relative_modular_class(graph_frame(P), H)
    assert err.value.check == "relative_modular_class"
    assert tuple(map(str, err.value.values)) == ("y1 - 2*y2", "-2*y2")
