"""Independent reference computations used to cross-check the library.

The multivector bracket oracle below never touches the graded
symplectic machinery: it works purely by wedge-Leibniz recursion from
the frame brackets and the anchor, so agreement with the derived
bracket implementation is meaningful evidence.

Rules used (U, V multivectors, f, g functions, xi_I a wedge monomial):

    [[xi_i, xi_j]] = sum_k c_{ij}^k xi_k
    [[xi_i, g]]    = rho_i(g)
    [[f, g]]       = 0
    [[f, V]]       = -(-1)^(v-1) [[V, f]]
    [[f xi_I, V]]  = (-1)^(|I|(v-1)) [[f, V]] ^ xi_I + f [[xi_I, V]]
    [[xi_i ^ M, V]] = (-1)^((|I|-1)(v-1)) [[xi_i, V]] ^ M + xi_i ^ [[M, V]]
    [[xi_i, g xi_J]] = rho_i(g) xi_J + g [[xi_i, xi_J]]
    [[xi_i, xi_j ^ M]] = [[xi_i, xi_j]] ^ M + xi_j ^ [[xi_i, M]]

with v the degree of the (homogeneous) right argument.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from algebroids.algebroid import SkewAlgebroid
from algebroids.scalar import _MAX_EXPONENT, _MAX_NESTING, _MAX_TERMS, ParseError, ScalarField
from algebroids.superalg import SuperPoly


# Dense accessors over the stored entries: an absent entry reads as zero, and
# c and P^{..} extend antisymmetrically from their stored i<j entries.


def c_at(A: SkewAlgebroid, i: int, j: int, k: int) -> ScalarField:
    """c_{ij}^k."""
    if i == j:
        return ScalarField.zero(A.chart)
    if i < j:
        return A.c.get((i, j, k), ScalarField.zero(A.chart))
    return -A.c.get((j, i, k), ScalarField.zero(A.chart))


def rho_at(A: SkewAlgebroid, i: int, a: int) -> ScalarField:
    """rho_i^a."""
    return A.rho.get((i, a), ScalarField.zero(A.chart))


def bivector_at(P, i: int, j: int) -> ScalarField:
    """P^{ij}."""
    if i == j:
        return ScalarField.zero(P.space.chart)
    if i < j:
        return P.entries.get((i, j), ScalarField.zero(P.space.chart))
    return -P.entries.get((j, i), ScalarField.zero(P.space.chart))


def _xi_mono(A: SkewAlgebroid, idx: tuple) -> SuperPoly:
    table = A.mv_table()
    if not idx:
        return SuperPoly.from_scalar(table, ScalarField.one(A.chart))
    return SuperPoly(table, {(tuple(idx), ()): ScalarField.one(A.chart)})


def _anchor_scalar(A: SkewAlgebroid, i0: int, g: ScalarField) -> ScalarField:
    out = ScalarField.zero(A.chart)
    for a in range(1, A.chart.m + 1):
        r = rho_at(A, i0 + 1, a)
        if not r.is_zero:
            out = out + r * g.partial(a)
    return out


def _frame_bracket(A: SkewAlgebroid, i0: int, j0: int) -> SuperPoly:
    table = A.mv_table()
    out = SuperPoly.zero(table)
    for k in range(1, A.rank + 1):
        f = c_at(A, i0 + 1, j0 + 1, k)
        if not f.is_zero:
            out = out + f * SuperPoly.generator(table, table.odd[k - 1])
    return out


def _xi_vs_term(A: SkewAlgebroid, i0: int, g: ScalarField, J: tuple) -> SuperPoly:
    # [[xi_i, g xi_J]], an even derivation of the wedge in its right slot
    table = A.mv_table()
    out = SuperPoly.from_scalar(table, _anchor_scalar(A, i0, g)) * _xi_mono(A, J)
    rest = _xi_generators_bracket(A, i0, J)
    if not rest.is_zero:
        out = out + SuperPoly.from_scalar(table, g) * rest
    return out


def _xi_generators_bracket(A: SkewAlgebroid, i0: int, J: tuple) -> SuperPoly:
    if not J:
        return SuperPoly.zero(A.mv_table())
    j0, tail = J[0], J[1:]
    out = _frame_bracket(A, i0, j0) * _xi_mono(A, tail)
    rest = _xi_generators_bracket(A, i0, tail)
    if not rest.is_zero:
        out = out + _xi_mono(A, (j0,)) * rest
    return out


def _term_bracket(A: SkewAlgebroid, f: ScalarField, I: tuple, g: ScalarField, J: tuple) -> SuperPoly:
    table = A.mv_table()
    v = len(J)
    if not I:
        if not J:
            return SuperPoly.zero(table)
        flipped = _term_bracket(A, g, J, f, ())
        return -flipped if (v - 1) % 2 == 0 else flipped
    one = ScalarField.one(A.chart)
    if f != one:
        head = _term_bracket(A, f, (), g, J)
        sign = 1 if (len(I) * (v - 1)) % 2 == 0 else -1
        out = (head * _xi_mono(A, I)) * sign
        rest = _term_bracket(A, one, I, g, J)
        if not rest.is_zero:
            out = out + SuperPoly.from_scalar(table, f) * rest
        return out
    i0, tail = I[0], I[1:]
    sign = 1 if ((len(I) - 1) * (v - 1)) % 2 == 0 else -1
    out = (_xi_vs_term(A, i0, g, J) * _xi_mono(A, tail)) * sign
    if tail:
        rest = _term_bracket(A, one, tail, g, J)
        if not rest.is_zero:
            out = out + _xi_mono(A, (i0,)) * rest
    return out


def schouten_oracle(A: SkewAlgebroid, U: SuperPoly, V: SuperPoly) -> SuperPoly:
    """Wedge-Leibniz evaluation of the multivector bracket."""
    table = A.mv_table()
    if U.table != table or V.table != table:
        raise ValueError("arguments must be multivectors on the algebroid")
    out = SuperPoly.zero(table)
    for (oddU, _eu), f in U.terms.items():
        for (oddV, _ev), g in V.terms.items():
            out = out + _term_bracket(A, f, oddU, g, oddV)
    return out


def is_lie_oracle(A: SkewAlgebroid) -> bool:
    """Jacobi identity on frame triples and the anchor as a bracket morphism
    on coordinates, each bracket taken by the wedge-Leibniz oracle. Both
    together make A Lie, since the Jacobiator of (X, Y, fZ) is f times that
    of (X, Y, Z) plus (rho[X, Y] - [rho X, rho Y])(f) Z."""
    table = A.mv_table()
    xi = [SuperPoly.generator(table, name) for name in table.odd]
    coords = [SuperPoly.from_scalar(table, ScalarField.coord(A.chart, name)) for name in A.chart.names]

    def br(U, V):
        return schouten_oracle(A, U, V)

    n = A.rank
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = xi[i], xi[j], xi[k]
                if not (br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))).is_zero:
                    return False
            for x in coords:
                if not (br(xi[i], br(xi[j], x)) - br(xi[j], br(xi[i], x)) - br(br(xi[i], xi[j]), x)).is_zero:
                    return False
    return True


# The graded Poisson bracket from its defining formula. Products and
# derivatives are written out again here, so that nothing is shared with the
# library's bracket kernel.


def _term_product(a: dict, b: dict) -> dict:
    """Product of two term dicts; odd factors are bubble-sorted into place,
    each swap of two neighbours flipping the sign."""
    out: dict = {}
    for (odd_a, even_a), ca in a.items():
        for (odd_b, even_b), cb in b.items():
            if set(odd_a) & set(odd_b):
                continue
            word, sign = list(odd_a + odd_b), 1
            for end in range(len(word) - 1, 0, -1):
                for k in range(end):
                    if word[k] > word[k + 1]:
                        word[k], word[k + 1] = word[k + 1], word[k]
                        sign = -sign
            key = (tuple(word), tuple(e + f for e, f in zip(even_a, even_b)))
            c = ca * cb * sign
            out[key] = out[key] + c if key in out else c
    return out


def _left_derivative(terms: dict, space, name: str) -> dict:
    """d/d(name) from the left: an odd generator leaves with the sign of the
    odd factors standing before it; a momentum lowers its exponent."""
    table = space.table
    out: dict = {}
    for (odd, even), c in terms.items():
        if name in table.chart.names:
            d = c.partial(name)
            if not d.is_zero:
                out[(odd, even)] = d
        elif name in table.odd:
            i = table.odd.index(name)
            if i in odd:
                pos = odd.index(i)
                out[(odd[:pos] + odd[pos + 1 :], even)] = c if pos % 2 == 0 else -c
        else:
            a = table.even2.index(name)
            if even[a]:
                lowered = even[:a] + (even[a] - 1,) + even[a + 1 :]
                out[(odd, lowered)] = c * even[a]
    return out


def poisson_bracket_oracle(F: SuperPoly, G: SuperPoly, space) -> SuperPoly:
    """{F, G} = sum_a (dF/dx^a dG/dp_a - dF/dp_a dG/dx^a)
              + sum_{i,j} (F d/dzeta^i) g^{ij} (d/dzeta^j G),

    with the right derivative of the parity-|F| part equal to
    (-1)^(|F|+1) times the left one, over every entry of the inverse
    pairing."""
    total: dict = {}

    def add(terms: dict, factor) -> None:
        for key, c in terms.items():
            c = c * factor
            total[key] = total[key] + c if key in total else c

    for parity in (0, 1):
        part = {key: c for key, c in F.terms.items() if len(key[0]) % 2 == parity}
        for x, p in zip(space.chart.names, space.momenta):
            dxF, dpG = _left_derivative(part, space, x), _left_derivative(G.terms, space, p)
            dpF, dxG = _left_derivative(part, space, p), _left_derivative(G.terms, space, x)
            add(_term_product(dxF, dpG), 1)
            add(_term_product(dpF, dxG), -1)
        right = 1 if parity else -1
        for i, zi in enumerate(space.zeta):
            for j, zj in enumerate(space.zeta):
                gij = space.pairing_inv[i][j]
                if gij:
                    dF = _left_derivative(part, space, zi)
                    dG = _left_derivative(G.terms, space, zj)
                    add(_term_product(dF, dG), right * gij)
    return SuperPoly(space.table, total)


# Odd substitution from its definition: each odd factor of a term is replaced
# by its image and the factors are multiplied out left to right with
# _term_product above, whose bubble sort gives the Koszul signs. Nothing is
# shared with the library's product or substitution kernels.


def substitution_oracle(F: SuperPoly, images: dict, table) -> SuperPoly:
    """The algebra morphism sending the odd generator of index i of F's
    table to the term dict images[i] on ``table``; even exponents carry
    over unchanged, so both tables list the same even generators."""
    total: dict = {}
    for (odd, even), c in F.terms.items():
        product = {((), even): c}
        for i in odd:
            product = _term_product(product, images[i])
        for key, v in product.items():
            total[key] = total[key] + v if key in total else v
    return SuperPoly(table, total)


# Structure maps from their index formulas, summed over every index with the
# dense accessors c_at, rho_at and bivector_at. The library walks only the
# stored entries instead.


def anchor_action_oracle(A: SkewAlgebroid, X, f: ScalarField) -> ScalarField:
    """rho(X)(f) = sum_{i,a} X_i rho_i^a df/dx^a."""
    out = ScalarField.zero(A.chart)
    for i in range(1, A.rank + 1):
        for a in range(1, A.chart.m + 1):
            out = out + X[i - 1] * rho_at(A, i, a) * f.partial(a)
    return out


def bracket_sections_oracle(A: SkewAlgebroid, X, Y) -> tuple:
    """[X, Y]^k = sum_{i,j} X_i Y_j c_{ij}^k + rho(X)(Y_k) - rho(Y)(X_k)."""
    out = []
    for k in range(1, A.rank + 1):
        v = anchor_action_oracle(A, X, Y[k - 1]) - anchor_action_oracle(A, Y, X[k - 1])
        for i in range(1, A.rank + 1):
            for j in range(1, A.rank + 1):
                v = v + X[i - 1] * Y[j - 1] * c_at(A, i, j, k)
        out.append(v)
    return tuple(out)


def modular_component_oracle(A: SkewAlgebroid, i: int) -> ScalarField:
    """phi_i = sum_k c_{ik}^k + sum_a d(rho_i^a)/dx^a."""
    out = ScalarField.zero(A.chart)
    for k in range(1, A.rank + 1):
        out = out + c_at(A, i, k, k)
    for a in range(1, A.chart.m + 1):
        out = out + rho_at(A, i, a).partial(a)
    return out


def sharp_oracle(P, alpha) -> tuple:
    """P#(alpha)_j = sum_i alpha_i P^{ij}."""
    n = P.space.split_rank
    zero = ScalarField.zero(P.space.chart)
    return tuple(sum((alpha[i - 1] * bivector_at(P, i, j) for i in range(1, n + 1)), zero) for j in range(1, n + 1))


def pairing_oracle(P, alpha, beta) -> ScalarField:
    """P(alpha, beta) = sum_{i,j} alpha_i P^{ij} beta_j."""
    n = P.space.split_rank
    out = ScalarField.zero(P.space.chart)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out = out + alpha[i - 1] * bivector_at(P, i, j) * beta[j - 1]
    return out


# Gaussian elimination with row swaps, written out here so that the oracles
# share no code with the library's elimination kernel.


def _echelon(rows: list, width: int) -> tuple:
    """(echelon rows, rank) of a copy of ``rows`` over its first ``width``
    columns: each column pivots on its first nonzero entry at or below the
    current row, swapped up into place, and clears the entries below it."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for r in range(rank + 1, len(rows)):
            if not rows[r][col].is_zero:
                factor = rows[r][col] / head[col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], head)]
        rank += 1
    return rows, rank


def _rank(rows: list) -> int:
    return _echelon(rows, len(rows[0]) if rows else 0)[1]


def _solve(rows: list, rhs: list) -> list:
    """The solution of a square invertible system: echelon form, then back
    substitution from the last pivot up."""
    n = len(rows)
    aug, rank = _echelon([list(row) + [b] for row, b in zip(rows, rhs)], n)
    assert rank == n, "singular system"
    x = [None] * n
    for i in reversed(range(n)):
        v = aug[i][n]
        for j in range(i + 1, n):
            v = v - aug[i][j] * x[j]
        x[i] = v / aug[i][i]
    return x


# Frame changes and induced structures with one linear solve per bracket,
# the way they were computed before each frame was reduced once.


def conjugate_frame_oracle(A: SkewAlgebroid, G) -> SkewAlgebroid | None:
    """A in the frame e'_i = sum_j G_i^j e_j, or None for a singular G:
    c'_{ij} solves t G = [e'_i, e'_j] pair by pair, and rho'_i = sum_l G_i^l rho_l."""
    n = A.rank
    if _rank(G) < n:
        return None
    zero = ScalarField.zero(A.chart)
    transposed = [[G[k][l] for k in range(n)] for l in range(n)]
    c = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            t = _solve(transposed, list(bracket_sections_oracle(A, G[i - 1], G[j - 1])))
            c.update(((i, j, k), t[k - 1]) for k in range(1, n + 1))
    rho = {
        (i, a): sum((G[i - 1][l - 1] * rho_at(A, l, a) for l in range(1, n + 1)), zero)
        for i in range(1, n + 1)
        for a in range(1, A.chart.m + 1)
    }
    return SkewAlgebroid(A.chart, n, c, rho)


def induced_algebroid_oracle(D, H):
    """The frame's induced algebroid, or the (pair, residual) of the first
    bracket {{D_a, H}, D_b} that leaves the frame's span.

    Brackets come from poisson_bracket_oracle. Each is solved on its own
    over the first n generator rows, in generator order, that carry the
    frame's rank; the residual is the bracket minus that combination."""
    space = D.space
    n = space.split_rank
    table = space.table
    zero = ScalarField.zero(space.chart)
    zeros = (0,) * len(table.even2)
    columns = [[D.matrix[a][g] for a in range(n)] for g in range(2 * n)]
    rows = []
    for g in range(2 * n):
        if _rank([columns[h] for h in rows + [g]]) > len(rows):
            rows.append(g)
    inner = [poisson_bracket_oracle(s, H.value, space) for s in D.sections]
    c = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            bracket = poisson_bracket_oracle(inner[a - 1], D.sections[b - 1], space)
            rhs = [bracket.terms.get(((g,), zeros), zero) for g in rows]
            t = _solve([columns[g] for g in rows], rhs)
            residual = bracket
            for tk, section in zip(t, D.sections):
                residual = residual - SuperPoly.from_scalar(table, tk) * section
            if not residual.is_zero:
                return (a, b), residual
            c.update(((a, b, k), t[k - 1]) for k in range(1, n + 1))
    rho = {}
    for a in range(1, n + 1):
        for x, name in enumerate(space.chart.names, start=1):
            coordinate = SuperPoly.coordinate(table, name)
            rho[(a, x)] = poisson_bracket_oracle(inner[a - 1], coordinate, space).terms.get(
                ((), zeros), zero
            )
    return SkewAlgebroid(space.chart, n, c, rho)


# The expression grammar evaluated the way it was before the parser folded
# plain polynomial dicts: every atom and every operator builds a canonical
# ScalarField or SuperPoly by the library's arithmetic. The text is split at
# spaces first and each piece into tokens second.

_PIECE_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[-+*^()/]|\S")


def _two_step_tokens(text: str) -> list:
    toks, line, start = [], 1, 0
    for piece in re.finditer(r"\S+|\n", text):
        if piece.group() == "\n":
            line, start = line + 1, piece.end()
            continue
        for t in _PIECE_TOKEN.finditer(piece.group()):
            toks.append((t.group(), line, piece.start() + t.start() - start + 1))
    return toks


class _ValueParser:
    def __init__(self, text: str, chart, table):
        self.toks, self.pos, self.depth = _two_step_tokens(text), 0, 0
        self.chart, self.table = chart, table
        if not self.toks:
            raise ParseError("empty expression", 1, 1)

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def fail(self, message: str):
        _, line, col = self.toks[min(self.pos, len(self.toks) - 1)]
        raise ParseError(message, line, col)

    def count(self, value) -> int:
        if isinstance(value, ScalarField):
            return len(value.num)
        return sum(len(c.num) for c in value.terms.values())

    def bounded(self, value, line: int, col: int):
        if self.count(value) > _MAX_TERMS:
            raise ParseError(f"expression has more than {_MAX_TERMS} terms", line, col)
        return value

    def integer(self, tok: str, line: int, col: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"cannot read the {len(tok)}-character integer literal", line, col) from None

    def parse(self):
        value = self.expr()
        if self.peek() == "/":
            self.fail("'/' is only allowed in rational literals")
        if self.peek() is not None:
            self.fail(f"unexpected {self.peek()!r}")
        return value

    def signed_term(self):
        if self.peek() == "-":
            self.take()
            return -self.term()
        return self.term()

    def expr(self):
        value = self.signed_term()
        while self.peek() in ("+", "-"):
            op, line, col = self.take()
            rhs = self.signed_term()
            value = self.bounded(value + rhs if op == "+" else value - rhs, line, col)
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            _, line, col = self.take()
            value = self.bounded(value * self.factor(), line, col)
        return value

    def factor(self):
        value = self.atom()
        if self.peek() != "^":
            return value
        self.take()
        if self.peek() is None or not self.peek().isdigit():
            self.fail("expected a nonnegative integer exponent after '^'")
        tok, line, col = self.take()
        k = self.integer(tok, line, col)
        if k > _MAX_EXPONENT:
            raise ParseError(f"exponent larger than {_MAX_EXPONENT}", line, col)
        n = self.count(value)
        if n and comb(n + k - 1, k) > _MAX_TERMS:
            raise ParseError(f"power has more than {_MAX_TERMS} terms", line, col)
        power = self.const(1)
        for _ in range(k):
            power = power * value
        return power

    def const(self, q):
        if self.table is None:
            return ScalarField.const(self.chart, q)
        return SuperPoly.from_scalar(self.table, q)

    def atom(self):
        if self.peek() is None:
            self.fail("unexpected end of expression")
        tok, line, col = self.take()
        if tok == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested more than {_MAX_NESTING} deep", line, col)
            self.depth += 1
            value = self.expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.take()
            self.depth -= 1
            return value
        if tok.isdigit():
            q = Fraction(self.integer(tok, line, col))
            if self.peek() == "/":
                self.take()
                if self.peek() is None or not self.peek().isdigit():
                    self.fail("expected a positive integer after '/'")
                dtok, dline, dcol = self.take()
                d = self.integer(dtok, dline, dcol)
                if d == 0:
                    raise ParseError("zero denominator", dline, dcol)
                q /= d
            return self.const(q)
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            if self.table is None and tok in self.chart.names:
                return ScalarField.coord(self.chart, tok)
            if self.table is not None and tok in (*self.chart.names, *self.table.odd, *self.table.even2):
                return SuperPoly.generator(self.table, tok)
            raise ParseError(f"unknown identifier {tok!r}", line, col)
        raise ParseError(f"unexpected {tok!r}", line, col)


def parse_oracle(text: str, chart, table=None):
    """What parse_scalar(text, chart) gives, or with a generator table over
    the chart what parse_super(text, table) gives, by value arithmetic."""
    return _ValueParser(text, chart, table).parse()
