"""Inputs are built without the algebra. The parser folds plain polynomial
dicts and canonicalises each value once, and a frame's isotropy is summed as
the pairing of its members' stored terms. Both agree with the routes they
replace: value arithmetic for every atom and operator, and one Poisson
bracket per pair of members."""

from collections import Counter

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from algebroids import courant, dirac
from algebroids.courant import poisson_bracket, split_space
from algebroids.dirac import Bivector, DiracFrame, graph_frame
from algebroids.scalar import BaseChart, ParseError, ScalarField, parse_scalar
from algebroids.superalg import GeneratorTable, SuperPoly, parse_super

from oracles import parse_oracle

CH = BaseChart(("x1", "x2"))
TABLE = GeneratorTable(CH, odd=("y1", "y2", "xi1"), even2=("p1", "p2"))
X1 = ScalarField.coord(CH, "x1")


def outcome(text: str, table=None):
    """(library result, oracle result): a value with its printed form, or
    the ParseError's text, line and column."""
    library = (lambda: parse_scalar(text, CH)) if table is None else (lambda: parse_super(text, table))
    results = []
    for parse in (library, lambda: parse_oracle(text, CH, table)):
        try:
            value = parse()
            results.append(("value", value, str(value)))
        except ParseError as exc:
            results.append(("error", str(exc), exc.line, exc.column))
    return results


SUM31 = " + ".join(f"x1^{k}" for k in range(31))

CASES = [
    ("x1 +\n  x2 *\r\n 3/4*x1\u2028- 0*x1 + x1^0", None),
    ("(x1 + 1)^0 - 0^0 + 0*x1 + 0/5 - -x2", None),
    ("3/4*x1 - 6/8*x1 + 12/8", None),
    (SUM31, None),
    (SUM31.replace(" + ", "\n+ ", 29), None),
    ("(1 + x1 + x2)^6 * (1 + x2)", None),
    ("(1 + x1 + x2)^6 *\r\n(1 + x2)", None),
    ("x1 +\r\n (1 + x1 + x2)^7", None),
    ("(x1 - x2)^3^2", None),
    ("x1 / x2", None),
    ("\u2028", None),
    ("x1 + (x2", None),
    ("x1 +\n 3/0", None),
    ("2^", None),
    ("x3 + x1", None),
    ("xi1^2 + y1*y2 + y2*y1", TABLE),
    ("xi1*y1 - 3/4*y1*xi1 + p1^2*x1", TABLE),
    ("(y1 + xi1 + p1 + x1)^3 * (1 + y2)", TABLE),
    ("(y1 + x1*p1)^2*xi1 -\r\n 0*xi1", TABLE),
    ("(y1 + y2 + xi1 + p1 + x1 + x2)^3", TABLE),
    ("(y1 + y2 + xi1 + p1 + p2 + x1 + x2)^3", TABLE),
    ("y1 + q1", TABLE),
]


@pytest.mark.parametrize("text,table", CASES)
def test_parser_matches_value_arithmetic(text, table):
    library, oracle = outcome(text, table)
    assert library == oracle


def test_budget_errors_name_the_operator():
    """The cases above reach each budget at a known place."""
    assert outcome(SUM31)[0][1:] == ("expression has more than 30 terms (line 1, column 229)", 1, 229)
    assert outcome("(1 + x1 + x2)^6 *\r\n(1 + x2)")[0][2:] == (1, 17)
    assert outcome("x1 +\r\n (1 + x1 + x2)^7")[0][1:] == ("power has more than 30 terms (line 2, column 16)", 2, 16)


SCALAR_LEAVES = [
    *("x1", "x2", "0", "1", "2", "3/4", "0/5", "12/8", "x9"),
    *("x1^7", "(x1 + x2)^8", "(x1 - x2)^3", "(1 + x1 + x2)^6"),
]
SUPER_LEAVES = SCALAR_LEAVES + ["y1", "y2", "xi1", "p1", "p2", "xi1^2", "(y1 + xi1 + p1 + x1)^3"]
NOISE = ["(", ")", "/", "^", "*", "x3", "@", "²", "3/0", "2^101"]
SPACES = [" ", "", "\n", "\r\n", "\u2028", " \t", " \n "]


def expressions(leaves):
    """Token lists under the grammar, built bottom up."""
    leaf = st.sampled_from(leaves).map(lambda s: [s])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "+ -", "- -"]), inner).map(
                lambda t: t[0] + [t[1]] + t[2]
            ),
            st.tuples(inner, st.sampled_from(["0", "1", "2", "3", "7"])).map(
                lambda t: ["("] + t[0] + [")", "^", t[1]]
            ),
            inner.map(lambda t: ["-", "("] + t + [")"]),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_parser_matches_value_arithmetic_randomized(data):
    table = data.draw(st.sampled_from([None, TABLE]))
    toks = data.draw(expressions(SCALAR_LEAVES if table is None else SUPER_LEAVES))
    # a large first operand brings sums and products near the term budget
    toks = data.draw(st.sampled_from([[], [], ["(1 + x1 + x2)^6", "+"], ["(x1 + x2)^8", "*"]])) + toks
    if data.draw(st.integers(0, 3)) == 0:
        toks.insert(data.draw(st.integers(0, len(toks))), data.draw(st.sampled_from(NOISE)))
    spaces = data.draw(st.lists(st.sampled_from(SPACES), min_size=len(toks) + 1, max_size=len(toks) + 1))
    text = spaces[0] + "".join(t + s for t, s in zip(toks, spaces[1:]))
    library, oracle = outcome(text, table)
    event(library[1].split(" (line")[0] if library[0] == "error" else "value")
    assert library == oracle


def _counting(monkeypatch, owner, names, counter, key):
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _f=original, **kwargs):
            counter[key] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


SUPER_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__")
SCALAR_ARITH = (*SUPER_ARITH, "__pow__", "__rtruediv__", "__neg__", "partial")


def test_parsing_and_frames_do_no_algebra(monkeypatch):
    calls = Counter()
    _counting(monkeypatch, ScalarField, ("__init__",), calls, "scalar construct")
    _counting(monkeypatch, ScalarField, SCALAR_ARITH, calls, "scalar arith")
    _counting(monkeypatch, SuperPoly, ("__init__",), calls, "super construct")
    _counting(monkeypatch, SuperPoly, (*SUPER_ARITH, "__neg__"), calls, "super arith")
    for module in (courant, dirac):
        _counting(monkeypatch, module, ("poisson_bracket",), calls, "bracket")

    f = parse_scalar("(1 + x1)^3*x2 - 3/4*x1 + 2 - x2*(x1 - 1)^2", CH)
    assert str(f) == "x1^3*x2 + 2*x1^2*x2 + 5*x1*x2 - 3/4*x1 + 2"
    assert calls == {"scalar construct": 1}

    calls.clear()
    F = parse_super("(y1 + x1*p1)^2*xi1 - 3/4*y2*xi1 + x1^2*y2*xi1 + 2", TABLE)
    assert len(F.terms) == 4
    assert calls == {"scalar construct": 4, "super construct": 1}

    space = split_space(CH, 3)
    calls.clear()
    frame = graph_frame(Bivector(space, {(1, 2): X1, (2, 3): X1 + 1}))
    assert frame.bivector().entries[(1, 2)] == X1
    sections = list(frame.sections)
    sections[2] = sections[2] + sections[0]
    DiracFrame(space, sections)
    sections[2] = sections[2] + SuperPoly.generator(space.table, "y2")
    with pytest.raises(ValueError, match=r"frame is not isotropic at pair \(1,3\)"):
        DiracFrame(space, sections)
    assert calls["bracket"] == 0


scalars = st.tuples(
    st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1)]),
        st.fractions(-2, 2, max_denominator=2),
        max_size=2,
    ),
    st.sampled_from([None, None, {(0, 0): 1, (1, 0): 1}]),
).map(lambda nd: ScalarField(CH, *nd))


def _degree_one(space, coefficients: dict) -> SuperPoly:
    zeros = (0,) * len(space.table.even2)
    return SuperPoly(space.table, {((g,), zeros): c for g, c in coefficients.items()})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_isotropy_is_the_pairing(data):
    n = data.draw(st.sampled_from([1, 2, 3, 4]))
    space = split_space(CH, n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    entries = data.draw(st.dictionaries(st.sampled_from(pairs), scalars, max_size=3)) if pairs else {}
    # a graph over the y or over the xi generators, then mixed by a random matrix
    base = graph_frame(Bivector(space, entries)).sections
    if data.draw(st.booleans()):
        swap = {g: (g + n) % (2 * n) for g in range(2 * n)}
        base = [_degree_one(space, {swap[odd[0]]: c for (odd, _), c in s.terms.items()}) for s in base]
    # an invertible mixing matrix: unit upper-triangular rows, permuted
    one, zero = ScalarField.one(CH), ScalarField.zero(CH)
    upper = [[one if i == j else data.draw(scalars) if j > i else zero for j in range(n)] for i in range(n)]
    sections = []
    for i in data.draw(st.permutations(range(n))):
        total = SuperPoly.zero(space.table)
        for g, s in zip(upper[i], base):
            total = total + SuperPoly.from_scalar(space.table, g) * s
        sections.append(total)
    # then one member may be perturbed or replaced by a random degree-1 element
    change = data.draw(st.sampled_from(["none", "none", "perturb", "random"]))
    if change != "none":
        a = data.draw(st.integers(0, n - 1))
        extra = data.draw(st.dictionaries(st.integers(0, 2 * n - 1), scalars.filter(bool), min_size=1, max_size=3))
        sections[a] = _degree_one(space, extra) + (sections[a] if change == "perturb" else 0)
    assume(all(not s.is_zero for s in sections))
    failing = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        if not poisson_bracket(sections[a - 1], sections[b - 1], space).is_zero
    ]
    event("rejected" if failing else "isotropic")
    if failing:
        a, b = failing[0]
        with pytest.raises(ValueError) as err:
            DiracFrame(space, sections)
        assert str(err.value) == f"frame is not isotropic at pair ({a},{b})"
    else:
        try:
            DiracFrame(space, sections)
        except ValueError as exc:
            assert str(exc) == "frame drops rank over the function field"
