"""Isotropic frames and bivector graphs on split quadratic phase spaces.

A bivector is stored as the quadratic element P = sum_{i<j} P^{ij} xi_i xi_j;
its graph frame D_a = y^a + P^{aj} xi_j is the time-1 flow of the Hamiltonian
vector field of P applied to the dual frame.  All span and closure questions
are decided by linear algebra over the rational-function field, so every
answer is generic: valid away from the finitely many hypersurfaces where a
frame minor or a denominator vanishes.

Twisting is a gauge transformation: ad_P raises the xi-weight by one and
lowers the y-weight by one, so for a projectable H = mu + phi (phi the pure-y
cubic) the (2,1) part of exp(ad_P) H is the twisted generator
{P, mu} + 1/2 {P, {P, phi}} and its (3,0) part is the twist obstruction.

Sign pinning.  With the bracket conventions of the quadratic layer,
{P, y^i} = -P^{ij} xi_j, and the cubic part of a generator enters twisted
formulas with a global flip: the covector bracket produced by the twisted
generator matches

    L_{P#a} b - L_{P#b} a - d(P(a, b)) - i_{P#b} i_{P#a} phi

where phi is contracted as the raw stored cubic.  Both sides are computed on
every twisted_bracket call and compared, so the convention cannot drift
silently.  The twist obstruction is compared once per (P, H) pair, and it and
the twisted generator are memoised on the Hamiltonian.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .algebroid import (
    AlgebroidMorphism,
    SkewAlgebroid,
    _coerce_scalar,
    _components,
    _components_to_form,
    _form_coefficient,
    bracket_sections,
    interior_product,
    is_morphism,
    lie_derivative_form,
    schouten,
)
from .courant import (
    Hamiltonian,
    SymplecticSpace2,
    bidegree_split,
    poisson_bracket,
    project_to_E,
)
from .errors import DiracClosureError, InternalConsistencyError, cross_check
from .linalg import row_reduce, solve_linear
from .modular import Cocycle1, modular_class_of_morphism, modular_cocycle
from .scalar import ScalarField
from .superalg import SuperPoly, _monomial_sum, transport


class Bivector:
    """Antisymmetric quadratic P = sum_{i<j} P^{ij} xi_i xi_j on a split space."""

    __slots__ = ("space", "entries", "_value")

    def __init__(self, space: SymplecticSpace2, entries: dict | None = None):
        if not space.is_split:
            raise ValueError("bivectors need a split space")
        n = space.split_rank
        cleaned = {}
        for (i, j), value in (entries or {}).items():
            if not (1 <= i < j <= n):
                raise ValueError(f"bad bivector index ({i},{j})")
            f = _coerce_scalar(space.chart, value)
            if not f.is_zero:
                cleaned[(i, j)] = f
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_value", None)

    def __setattr__(self, name, value):
        raise AttributeError("Bivector is immutable")

    @property
    def value(self) -> SuperPoly:
        """The quadratic element, built on first use."""
        if self._value is None:
            object.__setattr__(self, "_value", self._quadratic())
        return self._value

    def _quadratic(self) -> SuperPoly:
        # xi_i is odd generator n + i - 1, and i < j keeps the key sorted
        n = self.space.split_rank
        zeros = (0,) * len(self.space.table.even2)
        terms = {((n + i - 1, n + j - 1), zeros): f for (i, j), f in self.entries.items()}
        return SuperPoly(self.space.table, terms)

    def __neg__(self) -> "Bivector":
        return Bivector(self.space, {k: -f for k, f in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, Bivector):
            return NotImplemented
        return self.space == other.space and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def sharp(self, alpha) -> tuple:
        """Section components of P#(alpha): X_j = sum_i alpha_i P^{ij}."""
        n = self.space.split_rank
        alpha = _components(self.space.chart, n, alpha)
        out = [ScalarField.zero(self.space.chart)] * n
        for (i, j), f in self.entries.items():
            out[j - 1] = out[j - 1] + alpha[i - 1] * f
            out[i - 1] = out[i - 1] - alpha[j - 1] * f
        return tuple(out)

    def pairing(self, alpha, beta) -> ScalarField:
        """P(alpha, beta) = sum alpha_i P^{ij} beta_j."""
        n = self.space.split_rank
        beta = _components(self.space.chart, n, beta)
        image = self.sharp(alpha)
        return sum((x * b for x, b in zip(image, beta)), ScalarField.zero(self.space.chart))


class DiracFrame:
    """A rank-n isotropic frame D_a = X_a^i xi_i + eta^a_i y^i.

    Validation is generic over the rational-function field: the n x 2n
    coefficient matrix must have full rank as a matrix of rational
    functions, so independence may fail on the (excluded) vanishing locus
    of a minor. On degree-1 elements the Poisson bracket is the pairing
    sum D_a^i g^{ij} D_b^j, so isotropy sums it over the stored terms and
    the nonzero g^{ij}, with no bracket calculus. The frame is reduced
    once: that elimination finds the rank and the n generators whose rows
    carry it, which induced_algebroid reuses.
    """

    __slots__ = ("space", "sections", "matrix", "_pivots")

    def __init__(self, space: SymplecticSpace2, sections):
        if not space.is_split:
            raise ValueError("frames need a split space")
        n = space.split_rank
        sections = tuple(sections)
        if len(sections) != n:
            raise ValueError(f"expected {n} frame members, got {len(sections)}")
        zero = ScalarField.zero(space.chart)
        # each member as a dict from odd generator index to its coefficient
        members = []
        for s in sections:
            if not isinstance(s, SuperPoly) or s.table != space.table:
                raise ValueError("frame members must live on the space table")
            if s.is_zero or s != s.degree_part(1):
                raise ValueError("frame members must be homogeneous of degree 1")
            members.append({odd[0]: c for (odd, _), c in s.terms.items()})
        # the split pairing's nonzero entries are all 1
        for a, b in combinations_with_replacement(range(n), 2):
            mb = members[b]
            products = [f * mb[j] for i, f in members[a].items() for j, _ in space._inv_rows[i] if j in mb]
            if products and not sum(products[1:], products[0]).is_zero:
                raise ValueError(f"frame is not isotropic at pair ({a + 1},{b + 1})")
        matrix = tuple(tuple(m.get(g, zero) for g in range(2 * n)) for m in members)
        # rows index the 2n odd generators, columns the frame members
        pivots = row_reduce([[row[g] for row in matrix] for g in range(2 * n)], n)
        if len(pivots) != n:
            raise ValueError("frame drops rank over the function field")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_pivots", tuple(g for g, _ in pivots))

    def __setattr__(self, name, value):
        raise AttributeError("DiracFrame is immutable")

    @property
    def rank(self) -> int:
        return self.space.split_rank

    def e_components(self, a: int) -> tuple:
        """xi-coefficients X_a^i of the a-th member, 1-based."""
        n = self.rank
        return self.matrix[a - 1][n:]

    def dual_components(self, a: int) -> tuple:
        """y-coefficients eta^a_i of the a-th member, 1-based."""
        return self.matrix[a - 1][: self.rank]

    def is_graph(self) -> bool:
        """Whether the y-part is exactly the dual frame (eta = identity)."""
        n = self.rank
        one = ScalarField.one(self.space.chart)
        zero = ScalarField.zero(self.space.chart)
        for a in range(1, n + 1):
            dual = self.dual_components(a)
            for i in range(1, n + 1):
                if dual[i - 1] != (one if i == a else zero):
                    return False
        return True

    def bivector(self) -> Bivector:
        """Read the bivector off a graph frame; isotropy forces antisymmetry."""
        if not self.is_graph():
            raise ValueError("frame is not the graph of a bivector")
        n = self.rank
        entries = {}
        for i in range(1, n + 1):
            row = self.e_components(i)
            for j in range(i + 1, n + 1):
                entries[(i, j)] = row[j - 1]
        return Bivector(self.space, entries)


def _xi_rows(P: Bivector) -> list:
    """The (xi_j, P^{ij}) pairs of each row i of P, from the stored entries."""
    space = P.space
    rows = [[] for _ in range(space.split_rank)]
    for (i, j), f in P.entries.items():
        rows[i - 1].append(((space.xi_name(j),), f))
        rows[j - 1].append(((space.xi_name(i),), -f))
    return rows


def graph_frame(P: Bivector) -> DiracFrame:
    """The frame D_a = y^a + sum_j P^{aj} xi_j."""
    space = P.space
    one = ScalarField.one(space.chart)
    sections = [
        _monomial_sum(space.table, [((space.y_name(a),), one), *row])
        for a, row in enumerate(_xi_rows(P), start=1)
    ]
    return DiracFrame(space, sections)


def gauge_transform(F: SuperPoly, P: Bivector) -> SuperPoly:
    """exp(ad_P) F = sum_k (1/k!) {P, ... {P, F} ... }.

    Each bracket with P trades a y or a momentum for xi factors, so the sum
    terminates within degree(F) + 1 steps; tripping the guard means a kernel
    bug, not bad input.
    """
    space = P.space
    if F.table != space.table:
        raise ValueError("argument must live on the space table")
    if F.is_zero:
        return F
    guard = max(len(odd) + 2 * sum(even) for odd, even in F.terms) + 1
    total = F
    term = F
    k = 0
    while True:
        k += 1
        term = poisson_bracket(P.value, term, space) / k
        if term.is_zero:
            return total
        if k > guard:
            raise InternalConsistencyError("gauge series failed to terminate")
        total = total + term


def sharp_substitution(P: Bivector, F: SuperPoly) -> SuperPoly:
    """Substitute y^i -> sum_j P^{ij} xi_j; the wedge power of the sharp map."""
    space = P.space
    if F.table != space.table:
        raise ValueError("argument must live on the space table")
    images = {
        space.y_name(i): _monomial_sum(space.table, row)
        for i, row in enumerate(_xi_rows(P), start=1)
    }
    return F.subst_odd(images)


TwistedStructure = namedtuple("TwistedStructure", "value algebroid")


def _twist(P: Bivector, H: Hamiltonian):
    """(obstruction, TwistedStructure or None) of the pair; once per (P, H).

    One bidegree split of exp(ad_P) H gives the obstruction, compared with
    the multivector-bracket route, and the twisted generator, whose algebroid
    is built when the obstruction vanishes. The result is memoised on H under
    ("twist", P), a value key, so an equal bivector read back off a graph
    frame finds it.
    """
    space = H.space
    if P.space != space:
        raise ValueError("bivector and Hamiltonian live on different spaces")
    key = ("twist", P)
    if key in H._memo:
        return H._memo[key]
    A = project_to_E(H)
    flowed = bidegree_split(Hamiltonian(space, gauge_transform(H.value, P)))
    obstruction = flowed.psi.value
    pmv = transport(P.value, A.mv_table())
    square = schouten(A, pmv, pmv)
    phi = bidegree_split(H).phi.value
    path2 = transport(square, space.table) * Fraction(-1, 2) - sharp_substitution(P, phi)
    cross_check(obstruction, path2, "twist obstruction paths disagree", "twist_obstruction")
    twisted = None
    if obstruction.is_zero:
        n = space.split_rank
        terms = flowed.gamma.value.terms.items()
        # y^k xi_i xi_j terms give c^{ij}_k, and xi_i p_b terms the anchor
        c = {(o[1] - n + 1, o[2] - n + 1, o[0] + 1): -f for (o, _), f in terms if len(o) == 3}
        rho = {(o[0] - n + 1, e.index(1) + 1): -f for (o, e), f in terms if len(o) == 1}
        twisted = TwistedStructure(flowed.gamma.value, SkewAlgebroid(space.chart, n, c, rho))
    H._memo[key] = obstruction, twisted
    return obstruction, twisted


def quasi_poisson_check(P: Bivector, H: Hamiltonian):
    """(flag, obstruction): does the gauge flow of H vanish on the xi locus?

    The obstruction is computed twice: as the xi xi xi part (y = p = 0) of
    gauge_transform(H, P), and independently as -1/2 [[P, P]] - (sharp^3) phi
    via the multivector bracket; a mismatch raises.
    """
    obstruction, _ = _twist(P, H)
    return obstruction.is_zero, obstruction


def twisted_hamiltonian(P: Bivector, H: Hamiltonian) -> TwistedStructure:
    """Dual-side generator {P, mu} + 1/2 {P, {P, phi}} and its algebroid.

    It is the (xi xi y, xi p) part of gauge_transform(H, P). Reading xi as
    the dual frame gives structure functions c'^{ij}_k = -coeff(xi_i xi_j y^k)
    and anchor rho'^{ib} = -coeff(xi_i p_b).
    """
    obstruction, twisted = _twist(P, H)
    if twisted is None:
        raise ValueError(f"pair fails the compatibility check; obstruction {obstruction}")
    return twisted


def _form_components(A: SkewAlgebroid, omega) -> tuple:
    """Coefficient tuple of a y-linear form, or coerce a plain sequence."""
    if isinstance(omega, SuperPoly):
        if omega.table != A.table():
            raise ValueError("covector must live on the form table")
        if not (omega.is_zero or omega == omega.degree_part(1)):
            raise ValueError("covector must be homogeneous of degree 1")
        return tuple(_form_coefficient(omega, i) for i in range(1, A.rank + 1))
    return A.section(omega)


def twisted_bracket(P: Bivector, H: Hamiltonian, alpha, beta) -> SuperPoly:
    """Covector bracket of the twisted dual structure, as a y-linear form.

    Computed twice: through section brackets of the extracted dual algebroid,
    and through the Cartan formula on the base (see the module docstring for
    the pinned phi sign); a mismatch raises.
    """
    tw = twisted_hamiltonian(P, H)
    A = project_to_E(H)
    table = A.table()
    a = _form_components(A, alpha)
    b = _form_components(A, beta)

    derived_form = _components_to_form(A, bracket_sections(tw.algebroid, a, b))

    xa = P.sharp(a)
    xb = P.sharp(b)
    alpha_f = _components_to_form(A, a)
    beta_f = _components_to_form(A, b)
    pair = SuperPoly.from_scalar(table, P.pairing(a, b))
    phi_form = transport(bidegree_split(H).phi.value, table)
    cartan = (
        lie_derivative_form(A, xa, beta_f)
        - lie_derivative_form(A, xb, alpha_f)
        - A.de_rham_field().apply(pair)
        - interior_product(A, xb, interior_product(A, xa, phi_form))
    )
    cross_check(derived_form, cartan, "twisted bracket paths disagree", "twisted_bracket")
    return derived_form


def solve_twist(P: Bivector, A: SkewAlgebroid) -> SuperPoly | None:
    """Pure-y cubic phi with sharp_substitution(phi) = -1/2 [[P, P]], or None.

    The linear system is solved over the rational-function field, so the
    witness may have denominators; they vanish nowhere on the generic locus.
    """
    space = P.space
    if A.chart != space.chart or A.rank != space.split_rank:
        raise ValueError("bivector and algebroid do not match")
    n = A.rank
    table = space.table
    pmv = transport(P.value, A.mv_table())
    target = transport(schouten(A, pmv, pmv), table) * Fraction(-1, 2)
    one = ScalarField.one(A.chart)
    # the y^i y^j y^k with i < j < k, by generator names
    combos = list(combinations(space.zeta[:n], 3))
    columns = [sharp_substitution(P, _monomial_sum(table, [(names, one)])) for names in combos]
    keys = sorted(set(target.terms) | {key for col in columns for key in col.terms})
    zero = ScalarField.zero(A.chart)
    if not combos:
        return SuperPoly.zero(table) if target.is_zero else None
    rows = [[col.terms.get(key, zero) for col in columns] for key in keys]
    rhs = [target.terms.get(key, zero) for key in keys]
    solution = solve_linear(rows, rhs, zero)
    if solution is None:
        return None
    phi = _monomial_sum(table, zip(combos, solution))
    if sharp_substitution(P, phi) != target:
        raise InternalConsistencyError("twist solver produced a non-solution")
    return phi


def induced_algebroid(D: DiracFrame, H: Hamiltonian) -> SkewAlgebroid:
    """Structure carried by the frame when it closes under the derived bracket.

    It takes n + n(n-1)/2 brackets, {D_a, H} and {{D_a, H}, D_b}, and reads
    the anchor off {D_a, H}. Span membership is decided over the
    rational-function field by one reduction that serves every pair: the
    frame's pivot rows, laid out as [members | one column per bracket]. A
    bracket leaving the span raises DiracClosureError carrying the offending
    pair and the full bracket as residual evidence.
    """
    space = D.space
    if H.space != space:
        raise ValueError("frame and Hamiltonian live on different spaces")
    n = space.split_rank
    chart = space.chart
    zero = ScalarField.zero(chart)
    zeros = (0,) * len(space.table.even2)
    # {D_a, H} once per member: the derived bracket and the anchor both start from it
    inner = [poisson_bracket(s, H.value, space) for s in D.sections]
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    brackets = [poisson_bracket(inner[a - 1], D.sections[b - 1], space) for a, b in pairs]
    system = [
        [row[g] for row in D.matrix] + [br.terms.get(((g,), zeros), zero) for br in brackets]
        for g in D._pivots
    ]
    pivots = row_reduce(system, n)
    c = {}
    for p, ((a, b), bracket) in enumerate(zip(pairs, brackets)):
        residual = bracket
        for r, k in pivots:
            t = system[r][n + p]
            if not t.is_zero:
                residual = residual - t * D.sections[k]
                c[(a, b, k + 1)] = t
        if not residual.is_zero:
            raise DiracClosureError(
                f"bracket of frame members ({a},{b}) leaves the frame span", (a, b), residual
            )
    # {D_a, H} has degree 2: its odd-free terms are f p_b, with {{D_a, H}, x^b} = -f
    rho = {
        (a, e.index(1) + 1): -f for a, br in enumerate(inner, 1) for (o, e), f in br.terms.items() if not o
    }
    return SkewAlgebroid(chart, n, c, rho)


def relative_modular_class(D: DiracFrame, H: Hamiltonian) -> Cocycle1:
    """Class of the projection-to-base morphism on the induced algebroid.

    The projection sends D_a to its xi-part X_a; it must be a bracket
    morphism for conformant input, so a failed morphism check raises
    InternalConsistencyError rather than ValueError.  For graph frames the
    result is independently recomputed from the twisted dual structure.
    Everything is generic over the function field: frames whose projection
    drops rank on a hypersurface get the class away from that locus.
    """
    ind = induced_algebroid(D, H)
    A = project_to_E(H)
    n = D.rank
    matrix = {
        (a, i): f for a in range(1, n + 1) for i, f in enumerate(D.e_components(a), start=1)
    }
    try:
        rel = modular_class_of_morphism(AlgebroidMorphism(ind, A, matrix))
    except ValueError as exc:
        raise InternalConsistencyError(f"frame projection: {exc}") from exc
    if D.is_graph():
        P = D.bivector()
        tw = twisted_hamiltonian(P, H)
        dual_mod = modular_cocycle(tw.algebroid)
        base_mod = modular_cocycle(A)
        base = [base_mod.component(i) for i in range(1, n + 1)]
        cross = transport(dual_mod.value, ind.table()) + _components_to_form(ind, P.sharp(base))
        cross_check(rel.value, cross, "relative class paths disagree", "relative_modular_class")
    return rel


def verify_morphism_cor53(P: Bivector, H: Hamiltonian):
    """(flag, certificate): is the sharp map a morphism from the twisted dual?

    The matrix P^{ij} is checked as a bracket morphism from the twisted
    dual algebroid to the base one; a certificate names the first generator
    where the intertwining law breaks.
    """
    tw = twisted_hamiltonian(P, H)
    A = project_to_E(H)
    matrix = {}
    for (i, j), f in P.entries.items():
        matrix[(i, j)], matrix[(j, i)] = f, -f
    return is_morphism(AlgebroidMorphism(tw.algebroid, A, matrix))
