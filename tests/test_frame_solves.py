"""Each frame is reduced once, [d, d] applies d once per component, and a
modular cocycle is derived once per algebroid and gauge. The one-solve frame
computations agree with per-pair solves."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import algebroid, courant, dirac, linalg, modular
from algebroids.algebroid import SkewAlgebroid, conjugate_frame
from algebroids.cli import load_problem
from algebroids.courant import Hamiltonian, algebroid_hamiltonian, split_space, standard_hamiltonian
from algebroids.dirac import Bivector, DiracFrame, graph_frame, induced_algebroid, relative_modular_class
from algebroids.errors import DiracClosureError
from algebroids.modular import modular_cocycle
from algebroids.scalar import BaseChart, ScalarField
from algebroids.superalg import SuperPoly, SuperVectorField

from oracles import conjugate_frame_oracle, induced_algebroid_oracle

TM2 = Path(__file__).resolve().parent.parent / "problems" / "tm2.alg"
CH = BaseChart(("x1", "x2"))
X1 = ScalarField.coord(CH, "x1")
ONE = ScalarField.one(CH)
ZERO = ScalarField.zero(CH)


def nonlie():
    return SkewAlgebroid(CH, 3, {(1, 2, 3): X1, (2, 3, 1): 1}, {(1, 1): 1, (3, 2): X1})


def test_modular_cocycle_once_per_gauge():
    A = nonlie()
    gauge = ONE + X1 * X1
    assert modular_cocycle(A) is modular_cocycle(A)
    assert modular_cocycle(A, gauge) is modular_cocycle(A, gauge)
    assert modular_cocycle(A, gauge) is not modular_cocycle(A)


def test_jacobi_obstruction_applies_d_once_per_component(monkeypatch):
    A = nonlie()
    d = A.de_rham_field()
    applied = []
    apply = SuperVectorField.apply

    def counting(self, f):
        applied.append(f)
        return apply(self, f)

    monkeypatch.setattr(SuperVectorField, "apply", counting)
    assert not A.jacobi_obstruction().is_zero
    assert len(applied) == len(d.components)


def test_frames_need_no_inversion_rank_or_per_pair_solve(monkeypatch):
    calls = []
    for module in (linalg, algebroid, courant, dirac, modular):
        for name in ("invert_matrix", "matrix_rank", "solve_linear"):
            if hasattr(module, name):
                def counting(*args, _name=name, _f=getattr(module, name)):
                    calls.append(_name)
                    return _f(*args)

                monkeypatch.setattr(module, name, counting)
    A = SkewAlgebroid(CH, 2, {(1, 2, 2): 1}, {(1, 1): X1})
    B = conjugate_frame(A, [[0, 1], [1, X1]])
    assert B.c == {(1, 2, 1): -1}
    problem = load_problem(str(TM2))
    H = problem.hamiltonians["H"]
    assert str(relative_modular_class(problem.frames["D"], H)) == "-2*y2"
    assert str(relative_modular_class(graph_frame(problem.bivectors["P"]), H)) == "-2*y2"
    assert calls == []


def _check_against_oracles(A, G, frame, H):
    expected = conjugate_frame_oracle(A, G)
    if expected is None:
        with pytest.raises(ValueError, match="frame matrix is singular"):
            conjugate_frame(A, G)
    else:
        B = conjugate_frame(A, G)
        assert (B.c, B.rho) == (expected.c, expected.rho)
    expected = induced_algebroid_oracle(frame, H)
    if isinstance(expected, SkewAlgebroid):
        ind = induced_algebroid(frame, H)
        assert (ind.c, ind.rho) == (expected.c, expected.rho)
    else:
        with pytest.raises(DiracClosureError) as err:
            induced_algebroid(frame, H)
        assert (err.value.pair, err.value.residual) == expected


def _mixed(space, sections, G):
    """The frame D'_a = sum_b G_a^b D_b."""
    out = []
    for row in G:
        total = SuperPoly.zero(space.table)
        for g, s in zip(row, sections):
            total = total + SuperPoly.from_scalar(space.table, g) * s
        out.append(total)
    return DiracFrame(space, out)


def test_first_column_pivots_on_a_later_row():
    """G = [[0, 1], [1, x1]] turns the xi frame into D1 = xi2, D2 = xi1 + x1*xi2:
    both the conjugation and the frame reduce column 1 on a later row."""
    A = SkewAlgebroid(CH, 2, {(1, 2, 1): X1, (1, 2, 2): 1}, {(1, 1): 1, (2, 2): X1})
    space = split_space(CH, 2)
    G = [[ZERO, ONE], [ONE, X1]]
    xi = [SuperPoly.generator(space.table, space.xi_name(i)) for i in (1, 2)]
    frame = _mixed(space, xi, G)
    assert frame.sections[1] == SuperPoly.generator(space.table, "xi1") + X1 * xi[1]
    H = algebroid_hamiltonian(A, space)
    _check_against_oracles(A, G, frame, H)
    ind = induced_algebroid(frame, H)
    B = conjugate_frame(A, G)
    assert (ind.c, ind.rho) == (B.c, B.rho)


scalars = st.tuples(
    st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1)]),
        st.fractions(-2, 2, max_denominator=2),
        max_size=2,
    ),
    st.sampled_from([None, None, {(0, 0): 1, (1, 0): 1}]),
).map(lambda nd: ScalarField(CH, *nd))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_one_solve_matches_per_pair_solves(data):
    n = data.draw(st.sampled_from([3, 4, 2, 1]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    triples = [(i, j, k) for i, j in pairs for k in range(1, n + 1)]
    c = data.draw(st.dictionaries(st.sampled_from(triples), scalars, max_size=4)) if triples else {}
    anchors = [(i, a) for i in range(1, n + 1) for a in (1, 2)]
    rho = data.draw(st.dictionaries(st.sampled_from(anchors), scalars, max_size=3))
    A = SkewAlgebroid(CH, n, c, rho)
    # an invertible G: the rows of a unit upper-triangular matrix, permuted;
    # sometimes one row is replaced by a copy of another, making G singular
    upper = [[ONE if i == j else data.draw(scalars) if j > i else ZERO for j in range(n)] for i in range(n)]
    G = [upper[i] for i in data.draw(st.permutations(range(n)))]
    if n > 1 and data.draw(st.sampled_from([False, False, False, True])):
        G[-1] = G[0]
    space = split_space(CH, n)
    if data.draw(st.booleans()):
        base = [SuperPoly.generator(space.table, space.xi_name(i)) for i in range(1, n + 1)]
    else:
        entries = data.draw(st.dictionaries(st.sampled_from(pairs), scalars, max_size=3)) if pairs else {}
        base = graph_frame(Bivector(space, entries)).sections
    frame = _mixed(space, base, [upper[i] for i in range(n)] if G[-1] is G[0] else G)
    H = algebroid_hamiltonian(A, space)
    if n >= 3 and data.draw(st.booleans()):
        phi = {(1, 2, 3): data.draw(scalars)}
        H = Hamiltonian(space, H.value + standard_hamiltonian(space, {}, phi).value)
    _check_against_oracles(A, G, frame, H)
