"""Structure loops walk the stored nonzero entries of an algebroid or a
bivector. Zero and one are one shared object per chart, the library has no
dense accessor that fills in absent entries, and the sparse walks agree with
dense-loop oracles that do."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.algebroid import SkewAlgebroid, bracket_sections, conjugate_frame, is_lie
from algebroids.cli import load_problem
from algebroids.courant import split_space
from algebroids.dirac import Bivector, relative_modular_class, solve_twist, verify_morphism_cor53
from algebroids.modular import characteristic_form, modular_cocycle
from algebroids.scalar import BaseChart, ScalarField, parse_scalar

from oracles import (
    anchor_action_oracle,
    bracket_sections_oracle,
    modular_component_oracle,
    pairing_oracle,
    sharp_oracle,
)

TM2 = Path(__file__).resolve().parent.parent / "problems" / "tm2.alg"
CH = BaseChart(("x1", "x2"))


def test_zero_and_one_are_shared_per_chart():
    assert ScalarField.zero(CH) is ScalarField.zero(CH)
    assert ScalarField.one(CH) is ScalarField.one(CH)
    assert ScalarField.zero(BaseChart(("x1", "x2"))) is ScalarField.zero(CH)
    x1 = ScalarField.coord(CH, "x1")
    assert x1.partial(2) is ScalarField.zero(CH)
    assert (x1 - x1) is ScalarField.zero(CH)


def test_library_reads_no_absent_entry():
    problem = load_problem(str(TM2))
    A = problem.algebroids["tm2"]
    H = problem.hamiltonians["H"]
    P = problem.bivectors["P"]
    D = problem.frames["D"]
    x2 = ScalarField.coord(A.chart, "x2")
    # e'_1 = e_1 + x2 e_2 gives [e'_1, e'_2] = -e'_2: a stored c entry
    B = conjugate_frame(A, [[1, x2], [0, 1]])
    assert B.c == {(1, 2, 2): -1}
    gauge = parse_scalar("1 + x1^2", A.chart)
    for C in (A, B):
        assert is_lie(C)[0]
        assert modular_cocycle(C) == characteristic_form(C)
        assert modular_cocycle(C, gauge) == characteristic_form(C, gauge)
    assert solve_twist(P, A).is_zero
    assert str(relative_modular_class(D, H)) == "-2*y2"
    assert verify_morphism_cor53(P, H) == (True, None)


scalars = st.tuples(
    st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
        st.fractions(-3, 3, max_denominator=3),
        max_size=2,
    ),
    st.sampled_from([None, None, {(0, 0): 1, (1, 0): 1}]),
).map(lambda nd: ScalarField(CH, *nd))


def sections(n):
    return st.one_of(st.just((ScalarField.zero(CH),) * n), st.tuples(*[scalars] * n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_walks_match_dense_oracles(data):
    n = data.draw(st.integers(1, 4))
    triples = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(1, n + 1)]
    c = data.draw(st.dictionaries(st.sampled_from(triples), scalars, max_size=4)) if triples else {}
    anchors = [(i, a) for i in range(1, n + 1) for a in (1, 2)]
    rho = data.draw(st.dictionaries(st.sampled_from(anchors), scalars, max_size=3))
    A = SkewAlgebroid(CH, n, c, rho)
    X, Y = data.draw(sections(n)), data.draw(sections(n))
    f = data.draw(scalars)
    assert A.anchor_action(X, f) == anchor_action_oracle(A, X, f)
    assert bracket_sections(A, X, Y) == bracket_sections_oracle(A, X, Y)
    phi = modular_cocycle(A)
    for i in range(1, n + 1):
        assert phi.component(i) == modular_component_oracle(A, i)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    entries = data.draw(st.dictionaries(st.sampled_from(pairs), scalars, max_size=4)) if pairs else {}
    P = Bivector(split_space(CH, n), entries)
    assert P.sharp(X) == sharp_oracle(P, X)
    assert P.pairing(X, Y) == pairing_oracle(P, X, Y)
