"""Acceptance gate: one test per shipped guarantee, all exact equality.

Each test prints one ``CRITERION nn ...: PASS`` line when it succeeds, so a
verbose run gives one pass/fail line per criterion.  Randomized loops use
fixed seeds and desk-scale data (rank and chart dimension at most 4,
polynomial degree at most 3).
"""

import random
from fractions import Fraction
from itertools import combinations

from test_cli import ERRORS, GOLDEN, run as run_cli

from algebroids.algebroid import (
    AlgebroidMorphism,
    SkewAlgebroid,
    is_lie,
    is_morphism,
    schouten,
)
from algebroids.courant import (
    Hamiltonian,
    algebroid_hamiltonian,
    anchor_apply,
    derived_bracket,
    hamiltonian_square,
    poisson_bracket,
    project_to_E,
    split_space,
)
from algebroids.dirac import (
    DiracFrame,
    graph_frame,
    induced_algebroid,
    relative_modular_class,
    sharp_substitution,
    twisted_hamiltonian,
    verify_morphism_cor53,
)
from algebroids.modular import (
    characteristic_form,
    d_of_function,
    modular_cocycle,
)
from algebroids.scalar import BaseChart, ScalarField
from algebroids.superalg import (
    SuperPoly,
    commutator,
    divergence,
    parse_super,
    transport,
)
from genlib import (
    quasi_poisson_instances,
    rand_bivector,
    rand_closed_threeform,
    rand_field,
    rand_lie,
    rand_lie_algebra,
    rand_poly,
    rand_poly_nonzero,
    rand_skew,
    rand_super_homogeneous,
)
from oracles import bivector_at, c_at, rho_at

CHARTS = [
    BaseChart(("x1",)),
    BaseChart(("x1", "x2")),
    BaseChart(("x1", "x2", "x3")),
    BaseChart(("x1", "x2", "x3", "x4")),
]

_INSTANCES = None


def instances():
    global _INSTANCES
    if _INSTANCES is None:
        _INSTANCES = quasi_poisson_instances(random.Random(20250819))
    return _INSTANCES


def tangent(chart: BaseChart) -> SkewAlgebroid:
    return SkewAlgebroid(chart, chart.m, {}, {(i, i): 1 for i in range(1, chart.m + 1)})


def xi(space, i: int) -> SuperPoly:
    return SuperPoly.generator(space.table, space.xi_name(i))


def scal(space, f) -> SuperPoly:
    return SuperPoly.from_scalar(space.table, f)


def report(num: int, label: str):
    print(f"CRITERION {num:02d} {label}: PASS")


def twisted_instance(rng, chart):
    """A homological generator: a Lie algebroid plus a closed cubic twist."""
    A = rand_lie(rng, chart)
    space = split_space(chart, A.rank)
    twist = transport(rand_closed_threeform(rng, A), space.table)
    H = Hamiltonian(space, algebroid_hamiltonian(A, space).value + twist)
    assert hamiltonian_square(H).is_zero
    return A, space, H


def test_criterion_01_bracket_and_anchor_read_back_structure_data():
    rng = random.Random(101)
    checked = 0
    for trial in range(30):
        chart = CHARTS[trial % 4]
        A = rand_lie(rng, chart) if trial % 2 else rand_lie_algebra(rng, chart)
        space = split_space(chart, A.rank)
        H = algebroid_hamiltonian(A, space)
        for i in range(1, A.rank + 1):
            for j in range(i + 1, A.rank + 1):
                expected = SuperPoly.zero(space.table)
                for k in range(1, A.rank + 1):
                    expected = expected + scal(space, c_at(A, i, j, k)) * xi(space, k)
                assert derived_bracket(xi(space, i), xi(space, j), H) == expected
                checked += 1
            for a in range(1, chart.m + 1):
                coord = ScalarField.coord(chart, chart.names[a - 1])
                got = anchor_apply(xi(space, i), coord, H)
                assert got == scal(space, rho_at(A, i, a))
    assert checked >= 60
    report(1, "derived bracket and anchor read back the structure data")


def test_criterion_02_modular_class_three_paths_agree():
    rng = random.Random(102)
    for trial in range(100):
        chart = CHARTS[trial % 4]
        A = rand_skew(rng, chart)
        assert modular_cocycle(A) == characteristic_form(A)
    report(2, "divergence, closed-form, and frame-trace modular paths agree")


def test_criterion_03_fixed_instances_and_trace_oracle():
    for chart in CHARTS[:3]:
        assert modular_cocycle(tangent(chart)).is_zero
    ch = CHARTS[0]
    aff1 = SkewAlgebroid(ch, 2, {(1, 2, 2): 1})
    assert str(modular_cocycle(aff1).value) == "y1"
    sl2 = SkewAlgebroid(ch, 3, {(1, 2, 2): 2, (1, 3, 3): -2, (2, 3, 1): 1})
    assert modular_cocycle(sl2).is_zero

    def c_raw(A, i, j, k):
        if i < j:
            return A.c.get((i, j, k), ScalarField.zero(A.chart))
        if i > j:
            return -A.c.get((j, i, k), ScalarField.zero(A.chart))
        return ScalarField.zero(A.chart)

    rng = random.Random(103)
    for trial in range(20):
        A = rand_lie_algebra(rng, CHARTS[trial % 4])
        assert is_lie(A)[0]
        mod = modular_cocycle(A)
        for i in range(1, A.rank + 1):
            trace = ScalarField.zero(A.chart)
            for k in range(1, A.rank + 1):
                trace = trace + c_raw(A, i, k, k)
            assert mod.component(i) == trace
    report(3, "fixed instances match and the adjoint-trace oracle agrees")


def test_criterion_04_gauge_change_shifts_by_log_derivative():
    rng = random.Random(104)
    for trial in range(50):
        chart = CHARTS[trial % 4]
        A = rand_skew(rng, chart)
        g = rand_poly_nonzero(rng, chart, deg=2)
        if trial % 3 == 0:
            g = g / rand_poly_nonzero(rng, chart, deg=1)
        shift = SuperPoly.from_scalar(A.table(), ScalarField.one(chart) / g) * d_of_function(A, g)
        one = ScalarField.one(chart)
        assert characteristic_form(A, g).value - characteristic_form(A, one).value == shift
        assert modular_cocycle(A, g).value - modular_cocycle(A).value == shift
    report(4, "gauge change shifts the cocycle by the anchored log derivative")


def test_criterion_05_divergence_leibniz():
    rng = random.Random(105)
    tables = []
    for chart in CHARTS[:3]:
        tables.append(rand_skew(rng, chart, rank=3).table())
        tables.append(split_space(chart, 2).table)
    checked = 0
    while checked < 100:
        table = tables[checked % len(tables)]
        X = rand_field(rng, table, rng.randint(-1, 2))
        Y = rand_field(rng, table, rng.randint(-1, 2))
        if X.is_zero or Y.is_zero:
            continue
        checked += 1
        sign = -1 if X.parity and Y.parity else 1
        lhs = divergence(commutator(X, Y))
        assert lhs == X.apply(divergence(Y)) - sign * Y.apply(divergence(X))
    report(5, "divergence satisfies the graded Leibniz law on commutators")


def test_criterion_06_cocycle_closed_iff_jacobi():
    rng = random.Random(106)
    for trial in range(40):
        chart = CHARTS[trial % 4]
        A = rand_lie(rng, chart) if trial % 2 else rand_lie_algebra(rng, chart)
        value = modular_cocycle(A).value
        assert A.de_rham_field().apply(value).is_zero
    ch = CHARTS[0]
    bad = SkewAlgebroid(ch, 3, {(1, 2, 3): 1, (1, 3, 1): 1})
    assert not is_lie(bad)[0]
    residual = bad.de_rham_field().apply(modular_cocycle(bad).value)
    assert residual == parse_super("y1*y2", bad.table())
    report(6, "the cocycle is closed exactly on Jacobi data, with a witness")


def test_criterion_07_homological_iff_jacobi_and_twist_witness():
    rng = random.Random(107)
    saw_true = saw_false = False
    for trial in range(40):
        chart = CHARTS[trial % 4]
        A = rand_lie(rng, chart) if trial % 3 == 0 else rand_skew(rng, chart)
        H = algebroid_hamiltonian(A)
        back = project_to_E(H)
        assert back.c == A.c and back.rho == A.rho
        square_zero = hamiltonian_square(H).is_zero
        lie = is_lie(back)[0]
        assert square_zero == lie
        saw_true = saw_true or lie
        saw_false = saw_false or not lie
    assert saw_true and saw_false

    chart = CHARTS[3]
    A = tangent(chart)
    space = split_space(chart, 4)
    yyy = parse_super("y1*y2*y3", space.table)
    closed = Hamiltonian(
        space,
        algebroid_hamiltonian(A, space).value
        - SuperPoly.from_scalar(space.table, ScalarField.coord(chart, "x1")) * yyy,
    )
    assert hamiltonian_square(closed).is_zero
    skewed = Hamiltonian(
        space,
        algebroid_hamiltonian(A, space).value
        - SuperPoly.from_scalar(space.table, ScalarField.coord(chart, "x4")) * yyy,
    )
    assert hamiltonian_square(skewed) == parse_super("2*y1*y2*y3*y4", space.table)
    report(7, "the generator squares to zero exactly on Jacobi data")


def test_criterion_08_derived_bracket_laws_when_homological():
    rng = random.Random(108)
    for trial in range(25):
        chart = CHARTS[trial % 3]
        A, space, H = twisted_instance(rng, chart)
        table = space.table

        def section():
            return rand_super_homogeneous(rng, table, 1, terms=3, scalar_deg=1)

        e1, e2, e3 = section(), section(), section()
        lhs = derived_bracket(e1, derived_bracket(e2, e3, H), H)
        rhs = derived_bracket(derived_bracket(e1, e2, H), e3, H) + derived_bracket(
            e2, derived_bracket(e1, e3, H), H
        )
        assert lhs == rhs

        f = rand_poly(rng, chart, deg=2)
        scaled = SuperPoly.from_scalar(table, f) * e2
        leib = derived_bracket(e1, scaled, H)
        assert leib == SuperPoly.from_scalar(table, f) * derived_bracket(e1, e2, H) + anchor_apply(
            e1, f, H
        ) * e2

        pair = poisson_bracket(e2, e3, space)
        lhs = anchor_apply(e1, pair, H)
        rhs = poisson_bracket(derived_bracket(e1, e2, H), e3, space) + poisson_bracket(
            e2, derived_bracket(e1, e3, H), space
        )
        assert lhs == rhs
    report(8, "Loday, anchored Leibniz, and pairing invariance hold")


def test_criterion_09_bivector_master_identity():
    rng = random.Random(109)
    for trial in range(100):
        chart = CHARTS[trial % 2]
        rank = 4 if trial % 10 == 0 else 3
        A = rand_skew(rng, chart, rank=rank)
        space = split_space(chart, rank)
        table = space.table
        P = rand_bivector(rng, space, deg=1)
        phi = SuperPoly.zero(table)
        for (i, j, k) in combinations(range(1, rank + 1), 3):
            if rng.random() < 0.6:
                coeff = rand_poly(rng, chart, deg=1, terms=2)
                mono = (
                    SuperPoly.generator(table, space.y_name(i))
                    * SuperPoly.generator(table, space.y_name(j))
                    * SuperPoly.generator(table, space.y_name(k))
                )
                phi = phi + SuperPoly.from_scalar(table, coeff) * mono
        mu = algebroid_hamiltonian(A, space).value
        lhs = poisson_bracket(P.value, poisson_bracket(P.value, mu, space), space) * Fraction(1, 2)
        lhs = lhs + poisson_bracket(
            P.value,
            poisson_bracket(P.value, poisson_bracket(P.value, phi, space), space),
            space,
        ) * Fraction(1, 6)
        pmv = transport(P.value, A.mv_table())
        rhs = transport(schouten(A, pmv, pmv), table) * Fraction(-1, 2) - sharp_substitution(P, phi)
        assert lhs == rhs
    report(9, "the bivector flow identity holds without any closure assumption")


def test_criterion_10_graph_projection_is_morphism_on_instances():
    book = False
    for A, P, H in instances():
        flag, certificate = verify_morphism_cor53(P, H)
        assert flag and certificate is None
        if A.rank == 4 and bivector_at(P, 1, 2) == ScalarField.one(A.chart):
            if str(bivector_at(P, 3, 4)) == "x1 + 1":
                book = True
    assert book
    report(10, "the sharp map is a morphism on every compatible instance")


def test_criterion_11_relative_class_two_paths():
    for A, P, H in instances():
        rel = relative_modular_class(graph_frame(P), H)
        tw = twisted_hamiltonian(P, H)
        table = rel.algebroid.table()
        rhs = transport(modular_cocycle(tw.algebroid).value, table)
        base = modular_cocycle(A)
        for alpha in range(1, A.rank + 1):
            coeff = ScalarField.zero(A.chart)
            for i in range(1, A.rank + 1):
                coeff = coeff + base.component(i) * bivector_at(P, i, alpha)
            rhs = rhs + SuperPoly.from_scalar(table, coeff) * SuperPoly.generator(
                table, table.odd[alpha - 1]
            )
        assert rel.value == rhs
    report(11, "the relative class matches the cotwist-plus-sharp formula")


def test_criterion_12_projection_intertwines_differentials():
    rng = random.Random(112)
    for trial in range(30):
        chart = CHARTS[trial % 3]
        A, space, H = twisted_instance(rng, chart)
        F = rand_super_homogeneous(rng, A.table(), 1, terms=3, scalar_deg=1)
        F = F + rand_super_homogeneous(rng, A.table(), 2, terms=2, scalar_deg=1)
        F = F + SuperPoly.from_scalar(A.table(), rand_poly(rng, chart, deg=2))
        lift = transport(F, space.table)
        assert poisson_bracket(H.value, lift, space) == transport(
            A.de_rham_field().apply(F), space.table
        )

    frames = []
    for A, P, H in instances():
        frames.append((graph_frame(P), H))
    for chart_rank in (1, 2):
        chart = CHARTS[chart_rank]
        A = tangent(chart)
        space = split_space(chart, A.rank)
        H = algebroid_hamiltonian(A, space)
        frames.append((DiracFrame(space, [xi(space, i) for i in range(1, A.rank + 1)]), H))
    ch2 = CHARTS[1]
    tm2 = tangent(ch2)
    sp2 = split_space(ch2, 2)
    bfield = DiracFrame(
        sp2,
        [parse_super("xi1 + x1*y2", sp2.table), parse_super("xi2 - x1*y1", sp2.table)],
    )
    frames.append((bfield, algebroid_hamiltonian(tm2, sp2)))
    for frame, H in frames:
        induced = induced_algebroid(frame, H)
        target = project_to_E(H)
        matrix = {}
        for a in range(1, induced.rank + 1):
            for j, comp in enumerate(frame.e_components(a), start=1):
                if not comp.is_zero:
                    matrix[(a, j)] = comp
        flag, certificate = is_morphism(AlgebroidMorphism(induced, target, matrix))
        assert flag and certificate is None
    report(12, "projection intertwines the differentials and is a morphism")


def test_criterion_13_cli_golden_corpus(capsys):
    for argv, expected, code in GOLDEN:
        assert run_cli(argv, capsys) == (code, expected, "")
        assert run_cli(argv, capsys) == (code, expected, "")
    for argv, message in ERRORS:
        assert run_cli(argv, capsys) == (2, "", message)
    report(13, "the command line corpus is byte-stable with contract exits")
