"""Command line front end: declarative problem files in, canonical reports out.

A problem file declares one base chart and any number of named objects
(algebroids, morphisms, Hamiltonian generators, bivectors, frames); a verb
then names the objects it operates on.  Reports are one ``KEY: value`` line
each, with every polynomial printed in the library's canonical ordering, so
identical inputs produce byte-identical output.  Exit status is 0 for a
mathematical success, 1 for a mathematical failure (the report line carries
the certificate), 2 for an input error (unknown verb, undeclared name,
parse failure); input errors go to stderr prefixed with ``ERROR:`` and the
file position when one applies.
"""

from __future__ import annotations

import re
import sys
from math import comb

from .algebroid import AlgebroidMorphism, SkewAlgebroid, is_lie, is_morphism
from .courant import (
    Hamiltonian,
    algebroid_hamiltonian,
    bidegree_split,
    derived_bracket,
    hamiltonian_square,
    is_projectable,
    project_to_E,
    split_space,
    standard_hamiltonian,
)
from .dirac import (
    Bivector,
    DiracFrame,
    graph_frame,
    induced_algebroid,
    quasi_poisson_check,
    relative_modular_class,
    twisted_bracket,
    verify_morphism_cor53,
)
from .errors import DiracClosureError
from .modular import Cocycle1, exact_bound, is_exact, modular_class_of_morphism, modular_cocycle
from .scalar import BaseChart, ParseError, ScalarField, parse_scalar
from .superalg import SuperPoly, parse_super


class CliError(Exception):
    """Input error; the message is printed to stderr and the exit code is 2."""


# Budget of `exact`: its witness search solves for one unknown per
# nonconstant monomial of degree <= bound, C(m + bound, m) - 1 of them on an
# m-coordinate chart. 230 is the plane's count at bound 20, under a second.
_MAX_UNKNOWNS = 230
# Largest super space: 2*rank fibre generators plus m coordinates and their m
# momenta, 2*rank + 2*m <= 200. A rank-1 algebroid leaves room for 99
# coordinates, a plane for rank 98. With one c entry, two anchor entries and a
# one-entry bivector, every verb answers in under a second at the cap (2 shared
# cores): the slowest, relative-modular, takes 0.3 s at rank 98 on a plane or
# rank 2 on 98 coordinates, 0.2 s at rank 50 on 50, and 0.55 s at 244 generators.
_MAX_GENERATORS = 200


def _max_bound(m: int) -> int:
    """Largest degree bound whose witness search fits the budget."""
    bound = 0
    while comb(m + bound + 1, m) - 1 <= _MAX_UNKNOWNS:
        bound += 1
    return bound


_IDENT = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
# the fibre and momentum generators y1.., xi1.. and p1.. the library names
_GENERATED = re.compile(r"^(?:y|xi|p)[1-9][0-9]*$")
_MORPHISM_HEADER = re.compile(
    r"^morphism\s+([A-Za-z][A-Za-z0-9_]*)\s*:"
    r"\s*([A-Za-z][A-Za-z0-9_]*)\s*->\s*([A-Za-z][A-Za-z0-9_]*)$"
)


def _an(kind: str) -> str:
    return f"an {kind}" if kind[0] in "aeiou" else f"a {kind}"


def _ints(fields, where: str):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise CliError(f"{where}: indices must be integers") from None


class Problem:
    """All named objects declared by one problem file."""

    def __init__(self):
        self.chart = None
        self.algebroids = {}
        self.morphisms = {}
        self.hamiltonians = {}
        self.bivectors = {}
        self.frames = {}
        self.kinds = {}
        self._spaces = {}

    def space(self, rank: int):
        if rank not in self._spaces:
            self._spaces[rank] = split_space(self.chart, rank)
        return self._spaces[rank]

    def register(self, kind: str, name: str, obj, where: str):
        if name in self.kinds:
            raise CliError(f"{where}: name {name!r} already declared")
        self.kinds[name] = kind
        getattr(self, kind + "s")[name] = obj

    def lookup(self, kind: str, name: str):
        pool = getattr(self, kind + "s")
        if name in pool:
            return pool[name]
        if name in self.kinds:
            raise CliError(f"{name!r} is {_an(self.kinds[name])}, not {_an(kind)}")
        raise CliError(f"undeclared {kind} {name!r}")


def _ref_algebroid(problem: Problem, name: str, where: str) -> SkewAlgebroid:
    try:
        return problem.lookup("algebroid", name)
    except CliError as e:
        raise CliError(f"{where}: {e}") from None


class _Section:
    """One in-progress file section; finish() registers the built object."""

    def __init__(self, problem: Problem, header: str, where: str):
        self.problem = problem
        self.where = where
        fields = header.split()
        if header == "chart":
            self.kind = "chart"
            self.coords = None
        elif _MORPHISM_HEADER.match(header):
            name, src, dst = _MORPHISM_HEADER.match(header).groups()
            self.kind = "morphism"
            self.name = name
            self.source = _ref_algebroid(problem, src, where)
            self.target = _ref_algebroid(problem, dst, where)
            self.matrix = {}
        elif len(fields) == 2 and fields[0] == "algebroid":
            self.kind = "algebroid"
            self.name = fields[1]
            self.rank = None
            self.c = {}
            self.rho = {}
        elif len(fields) == 4 and fields[0] in ("hamiltonian", "bivector", "frame") and fields[2] == "on":
            self.kind = fields[0]
            self.name = fields[1]
            self.algebroid = _ref_algebroid(problem, fields[3], where)
            self.entries = {}
            self.extra = []
        else:
            raise CliError(f"{where}: unrecognized section header [{header}]")
        if self.kind != "chart" and not _IDENT.match(self.name):
            raise CliError(f"{where}: bad name {self.name!r}")
        if self.kind != "chart" and problem.chart is None:
            raise CliError(f"{where}: no [chart] section declared yet")

    def _scalar(self, text: str, where: str) -> ScalarField:
        try:
            return parse_scalar(text, self.problem.chart)
        except ParseError as e:
            raise CliError(f"{where}: {e}") from None

    def _super(self, text: str, table, where: str) -> SuperPoly:
        try:
            return parse_super(text, table)
        except ParseError as e:
            raise CliError(f"{where}: {e}") from None

    def add(self, key: str, fields, rhs: str, where: str):
        if self.kind == "chart":
            if key != "coords" or fields:
                raise CliError(f"{where}: chart sections take a single 'coords' entry")
            if self.coords is not None:
                raise CliError(f"{where}: duplicate coords entry")
            names = rhs.split()
            cap = _MAX_GENERATORS // 2 - 1
            if len(names) > cap:
                raise CliError(f"{where}: at most {cap} coordinates")
            try:
                self.coords = BaseChart(tuple(names))
            except ValueError as e:
                raise CliError(f"{where}: {e}") from None
            for name in names:
                if _GENERATED.match(name):
                    raise CliError(
                        f"{where}: coordinate name {name!r} is reserved for the"
                        " generated y*, xi* and p* names"
                    )
        elif self.kind == "algebroid":
            self._add_algebroid(key, fields, rhs, where)
        elif self.kind == "morphism":
            if key != "phi" or len(fields) != 2:
                raise CliError(f"{where}: morphism entries look like 'phi i j = <expr>'")
            i, j = _ints(fields, where)
            if not (1 <= i <= self.source.rank and 1 <= j <= self.target.rank):
                raise CliError(f"{where}: matrix index ({i},{j}) out of range")
            if (i, j) in self.matrix:
                raise CliError(f"{where}: duplicate entry phi {i} {j}")
            self.matrix[(i, j)] = self._scalar(rhs, where)
        elif self.kind == "hamiltonian":
            self._add_hamiltonian(key, fields, rhs, where)
        elif self.kind == "bivector":
            if key != "P" or len(fields) != 2:
                raise CliError(f"{where}: bivector entries look like 'P i j = <expr>'")
            i, j = _ints(fields, where)
            n = self.algebroid.rank
            if not (1 <= i < j <= n):
                raise CliError(f"{where}: bivector index ({i},{j}) needs 1 <= i < j <= {n}")
            if (i, j) in self.entries:
                raise CliError(f"{where}: duplicate entry P {i} {j}")
            self.entries[(i, j)] = self._scalar(rhs, where)
        else:
            self._add_frame(key, fields, rhs, where)

    def _add_algebroid(self, key, fields, rhs, where):
        if key == "rank" and not fields:
            if self.rank is not None:
                raise CliError(f"{where}: duplicate rank entry")
            try:
                self.rank = int(rhs)
            except ValueError:
                raise CliError(f"{where}: rank must be an integer") from None
            if self.rank < 1:
                raise CliError(f"{where}: rank must be at least 1")
            cap = _MAX_GENERATORS // 2 - self.problem.chart.m
            if self.rank > cap:
                raise CliError(f"{where}: rank must be at most {cap} on this chart")
            return
        if self.rank is None:
            raise CliError(f"{where}: 'rank = n' must come before structure entries")
        if key == "c" and len(fields) == 3:
            i, j, k = _ints(fields, where)
            if not (1 <= i < j <= self.rank and 1 <= k <= self.rank):
                raise CliError(f"{where}: structure index ({i},{j},{k}) needs 1 <= i < j <= rank")
            if (i, j, k) in self.c:
                raise CliError(f"{where}: duplicate entry c {i} {j} {k}")
            self.c[(i, j, k)] = self._scalar(rhs, where)
        elif key == "rho" and len(fields) == 2:
            i, a = _ints(fields, where)
            if not (1 <= i <= self.rank and 1 <= a <= self.problem.chart.m):
                raise CliError(f"{where}: anchor index ({i},{a}) out of range")
            if (i, a) in self.rho:
                raise CliError(f"{where}: duplicate entry rho {i} {a}")
            self.rho[(i, a)] = self._scalar(rhs, where)
        else:
            raise CliError(f"{where}: algebroid entries are 'rank', 'c i j k', or 'rho i a'")

    def _add_hamiltonian(self, key, fields, rhs, where):
        space = self.problem.space(self.algebroid.rank)
        if key == "phi" and len(fields) == 3:
            i, j, k = _ints(fields, where)
            n = self.algebroid.rank
            if not (1 <= i < j < k <= n):
                raise CliError(f"{where}: twist index ({i},{j},{k}) needs 1 <= i < j < k <= {n}")
            if (i, j, k) in self.entries:
                raise CliError(f"{where}: duplicate entry phi {i} {j} {k}")
            self.entries[(i, j, k)] = self._scalar(rhs, where)
        elif key == "term" and not fields:
            self.extra.append(self._super(rhs, space.table, where))
        else:
            raise CliError(f"{where}: hamiltonian entries are 'phi i j k' or 'term'")

    def _add_frame(self, key, fields, rhs, where):
        if key != "D" or len(fields) != 1:
            raise CliError(f"{where}: frame entries look like 'D a = <expr>'")
        (a,) = _ints(fields, where)
        n = self.algebroid.rank
        if not 1 <= a <= n:
            raise CliError(f"{where}: frame index {a} out of range")
        if a in self.entries:
            raise CliError(f"{where}: duplicate entry D {a}")
        space = self.problem.space(n)
        value = self._super(rhs, space.table, where)
        if value.is_zero or value != value.degree_part(1):
            raise CliError(f"{where}: frame members must be homogeneous of degree 1 in y, xi")
        self.entries[a] = value

    def finish(self):
        problem, where = self.problem, self.where
        if self.kind == "chart":
            if problem.chart is not None:
                raise CliError(f"{where}: only one [chart] section is allowed")
            if self.coords is None:
                raise CliError(f"{where}: chart section needs a 'coords' entry")
            problem.chart = self.coords
            return
        try:
            if self.kind == "algebroid":
                if self.rank is None:
                    raise CliError(f"{where}: algebroid section needs a 'rank' entry")
                obj = SkewAlgebroid(problem.chart, self.rank, self.c, self.rho)
            elif self.kind == "morphism":
                obj = AlgebroidMorphism(self.source, self.target, self.matrix)
            elif self.kind == "hamiltonian":
                obj = self._finish_hamiltonian()
            elif self.kind == "bivector":
                obj = Bivector(problem.space(self.algebroid.rank), self.entries)
            else:
                obj = self._finish_frame()
        except ValueError as e:
            raise CliError(f"{where}: {e}") from None
        problem.register(self.kind, self.name, obj, where)

    def _finish_hamiltonian(self) -> Hamiltonian:
        space = self.problem.space(self.algebroid.rank)
        value = algebroid_hamiltonian(self.algebroid, space).value
        value = value + standard_hamiltonian(space, {}, self.entries).value
        for extra in self.extra:
            value = value + extra
        return Hamiltonian(space, value)

    def _finish_frame(self) -> DiracFrame:
        n = self.algebroid.rank
        missing = [str(a) for a in range(1, n + 1) if a not in self.entries]
        if missing:
            raise CliError(f"{self.where}: frame is missing members D {', D '.join(missing)}")
        return DiracFrame(self.problem.space(n), [self.entries[a] for a in range(1, n + 1)])


def parse_problem(path: str, text: str) -> Problem:
    problem = Problem()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise CliError(f"{where}: unterminated section header")
            if section is not None:
                section.finish()
            section = _Section(problem, line[1:-1].strip(), where)
            continue
        if section is None:
            raise CliError(f"{where}: entry outside of any section")
        key, eq, rhs = line.partition("=")
        fields = key.split()
        if not (eq and fields and rhs.strip()):
            raise CliError(f"{where}: expected 'key = value'")
        section.add(fields[0], fields[1:], rhs.strip(), where)
    if section is not None:
        section.finish()
    return problem


def load_problem(path: str) -> Problem:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as e:
        raise CliError(f"cannot read {path!r}: {e.strerror or e}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise CliError(f"{path}:{line}: not valid UTF-8 text") from None
    return parse_problem(path, text)


# verb helpers

def _parse_section_arg(text: str, space, what: str) -> SuperPoly:
    try:
        value = parse_super(text, space.table)
    except ParseError as e:
        raise CliError(f"{what} {text!r}: {e}") from None
    if value != value.degree_part(1):
        raise CliError(f"{what} must be homogeneous of degree 1")
    return value

def _parse_covector_arg(text: str, A: SkewAlgebroid, what: str) -> SuperPoly:
    try:
        value = parse_super(text, A.table())
    except ParseError as e:
        raise CliError(f"{what} {text!r}: {e}") from None
    for odd, even in value.terms:
        if len(odd) != 1 or any(even):
            raise CliError(f"{what} must be a y-linear expression")
    return value

def _structure_lines(A: SkewAlgebroid) -> list:
    lines = []
    for (i, j, k) in sorted(A.c):
        lines.append(f"c {i} {j} {k} = {A.c[(i, j, k)]}")
    for (i, a) in sorted(A.rho):
        lines.append(f"rho {i} {a} = {A.rho[(i, a)]}")
    return lines

def _not_projectable(H: Hamiltonian) -> str:
    parts = bidegree_split(H)
    bad = parts.gamma.value + parts.psi.value
    return f"PROJECTABLE: NO, obstruction = {bad}"

def _quasi_or_none(P: Bivector, H: Hamiltonian):
    """(flag, failure line): the shared precondition of the twisted verbs."""
    try:
        flag, obstruction = quasi_poisson_check(P, H)
    except ValueError as e:
        raise CliError(str(e)) from None
    if flag:
        return True, None
    return False, f"QUASI-POISSON: NO, obstruction = {obstruction}"


# verbs

def _cmd_check_jacobi(problem, names, options):
    A = problem.lookup("algebroid", names[0])
    flag, certificate = is_lie(A)
    if flag:
        print("JACOBI: OK")
        return 0
    print(f"JACOBI: FAIL, [d,d] = {certificate}")
    return 1

def _cmd_modular(problem, names, options):
    A = problem.lookup("algebroid", names[0])
    gauge = None
    if "gauge" in options:
        try:
            gauge = parse_scalar(options["gauge"], problem.chart)
        except ParseError as e:
            raise CliError(f"gauge {options['gauge']!r}: {e}") from None
        if gauge.is_zero:
            raise CliError("gauge must be a nonzero function")
    print(f"MODULAR COCYCLE: {modular_cocycle(A, gauge).value}")
    return 0

def _cmd_exact(problem, names, options):
    A = problem.lookup("algebroid", names[0])
    value = _parse_covector_arg(names[1], A, "cocycle")
    try:
        cocycle = Cocycle1(A, value)
    except ValueError as e:
        raise CliError(str(e)) from None
    if "bound" in options:
        try:
            bound = int(options["bound"])
        except ValueError:
            raise CliError("--bound must be an integer") from None
        if bound < 1:
            raise CliError("--bound must be at least 1")
        over = ""
    else:
        bound = exact_bound(value)
        over = f"default degree bound {bound} is over budget; "
    cap = _max_bound(problem.chart.m)
    if bound > cap:
        raise CliError(f"{over}--bound must be at most {cap}")
    try:
        flag, witness = is_exact(A, cocycle, bound)
    except ValueError as e:
        raise CliError(str(e)) from None
    if flag:
        print(f"EXACT: YES, f = {witness}")
        return 0
    print(f"EXACT: NO (degree bound {bound})")
    return 1

def _cmd_morphism_check(problem, names, options):
    phi = problem.lookup("morphism", names[0])
    flag, certificate = is_morphism(phi)
    if flag:
        print("MORPHISM: OK")
        return 0
    name, defect = certificate
    print(f"MORPHISM: FAIL, at {name}, defect = {defect}")
    return 1

def _cmd_morphism_mod(problem, names, options):
    phi = problem.lookup("morphism", names[0])
    if not is_morphism(phi)[0]:
        # the verdict is memoised on phi, so this reprints it without a rerun
        return _cmd_morphism_check(problem, names, options)
    print(f"MORPHISM MODULAR CLASS: {modular_class_of_morphism(phi).value}")
    return 0

def _cmd_courant_check(problem, names, options):
    H = problem.lookup("hamiltonian", names[0])
    square = hamiltonian_square(H)
    if square.is_zero:
        print("COURANT: OK")
        return 0
    print(f"COURANT: FAIL, {{H,H}} = {square}")
    return 1

def _cmd_dorfman(problem, names, options):
    H = problem.lookup("hamiltonian", names[0])
    X = _parse_section_arg(names[1], H.space, "section")
    Y = _parse_section_arg(names[2], H.space, "section")
    print(f"DORFMAN: {derived_bracket(X, Y, H)}")
    return 0

def _cmd_projectable(problem, names, options):
    H = problem.lookup("hamiltonian", names[0])
    if is_projectable(H):
        print("PROJECTABLE: YES")
        return 0
    print(_not_projectable(H))
    return 1

def _cmd_project(problem, names, options):
    H = problem.lookup("hamiltonian", names[0])
    if not is_projectable(H):
        print(_not_projectable(H))
        return 1
    A = project_to_E(H)
    print(f"PROJECTED ALGEBROID: rank {A.rank}")
    for line in _structure_lines(A):
        print(line)
    print(f"HOMOLOGICAL: {'YES' if hamiltonian_square(H).is_zero else 'NO'}")
    return 0

def _cmd_quasi_poisson(problem, names, options):
    P = problem.lookup("bivector", names[0])
    H = problem.lookup("hamiltonian", names[1])
    flag, failure = _quasi_or_none(P, H)
    if flag:
        print("QUASI-POISSON: YES")
        return 0
    print(failure)
    return 1

def _cmd_twisted_bracket(problem, names, options):
    P = problem.lookup("bivector", names[0])
    H = problem.lookup("hamiltonian", names[1])
    flag, failure = _quasi_or_none(P, H)
    if not flag:
        print(failure)
        return 1
    A = project_to_E(H)
    alpha = _parse_covector_arg(names[2], A, "covector")
    beta = _parse_covector_arg(names[3], A, "covector")
    print(f"TWISTED BRACKET: {twisted_bracket(P, H, alpha, beta)}")
    return 0

def _dirac_fail(e: DiracClosureError) -> str:
    a, b = e.pair
    return f"DIRAC: FAIL, bracket ({a},{b}) leaves the span, residual = {e.residual}"

def _cmd_dirac_check(problem, names, options):
    frame = problem.lookup("frame", names[0])
    H = problem.lookup("hamiltonian", names[1])
    try:
        induced = induced_algebroid(frame, H)
    except DiracClosureError as e:
        print(_dirac_fail(e))
        return 1
    except ValueError as e:
        raise CliError(str(e)) from None
    print(f"DIRAC: OK, rank {induced.rank}")
    for line in _structure_lines(induced):
        print(line)
    return 0

def _cmd_relative_modular(problem, names, options):
    name = names[0]
    if name in problem.frames:
        frame = problem.frames[name]
    elif name in problem.bivectors:
        frame = graph_frame(problem.bivectors[name])
    elif name in problem.kinds:
        raise CliError(f"{name!r} is {_an(problem.kinds[name])}, not a frame or bivector")
    else:
        raise CliError(f"undeclared frame or bivector {name!r}")
    H = problem.lookup("hamiltonian", names[1])
    try:
        cocycle = relative_modular_class(frame, H)
    except DiracClosureError as e:
        print(_dirac_fail(e))
        return 1
    except ValueError as e:
        raise CliError(str(e)) from None
    print(f"RELATIVE MODULAR CLASS: {cocycle.value}")
    return 0

def _cmd_verify_cor53(problem, names, options):
    P = problem.lookup("bivector", names[0])
    H = problem.lookup("hamiltonian", names[1])
    flag, failure = _quasi_or_none(P, H)
    if not flag:
        print(failure)
        return 1
    ok, certificate = verify_morphism_cor53(P, H)
    if ok:
        print("COR53: OK")
        return 0
    name, defect = certificate
    print(f"COR53: FAIL, at {name}, defect = {defect}")
    return 1


_VERBS = {
    "check-jacobi": (_cmd_check_jacobi, 1, (), "FILE ALGEBROID"),
    "modular": (_cmd_modular, 1, ("gauge",), "FILE ALGEBROID [--gauge EXPR]"),
    "exact": (_cmd_exact, 2, ("bound",), "FILE ALGEBROID COCYCLE [--bound N]"),
    "morphism-check": (_cmd_morphism_check, 1, (), "FILE MORPHISM"),
    "morphism-mod": (_cmd_morphism_mod, 1, (), "FILE MORPHISM"),
    "courant-check": (_cmd_courant_check, 1, (), "FILE HAMILTONIAN"),
    "dorfman": (_cmd_dorfman, 3, (), "FILE HAMILTONIAN SECTION SECTION"),
    "projectable": (_cmd_projectable, 1, (), "FILE HAMILTONIAN"),
    "project": (_cmd_project, 1, (), "FILE HAMILTONIAN"),
    "quasi-poisson": (_cmd_quasi_poisson, 2, (), "FILE BIVECTOR HAMILTONIAN"),
    "twisted-bracket": (_cmd_twisted_bracket, 4, (), "FILE BIVECTOR HAMILTONIAN COVECTOR COVECTOR"),
    "dirac-check": (_cmd_dirac_check, 2, (), "FILE FRAME HAMILTONIAN"),
    "relative-modular": (_cmd_relative_modular, 2, (), "FILE FRAME-OR-BIVECTOR HAMILTONIAN"),
    "verify-cor53": (_cmd_verify_cor53, 2, (), "FILE BIVECTOR HAMILTONIAN"),
}


def _usage() -> str:
    lines = ["usage: algebroids VERB FILE ARGS..."]
    for verb in sorted(_VERBS):
        lines.append(f"  algebroids {verb} {_VERBS[verb][3]}")
    return "\n".join(lines)


def _split_args(args, allowed):
    positional, options = [], {}
    items = iter(args)
    for item in items:
        if item.startswith("--"):
            name, eq, inline = item[2:].partition("=")
            if name not in allowed:
                raise CliError(f"unknown option --{name}")
            if name in options:
                raise CliError(f"duplicate option --{name}")
            if eq:
                options[name] = inline
            else:
                value = next(items, None)
                if value is None:
                    raise CliError(f"option --{name} needs a value")
                options[name] = value
        else:
            positional.append(item)
    return positional, options


def run(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0
    verb = argv[0]
    if verb not in _VERBS:
        raise CliError(f"unknown verb {verb!r} (run with --help for the list)")
    handler, arity, allowed, usage = _VERBS[verb]
    positional, options = _split_args(argv[1:], allowed)
    if len(positional) != arity + 1:
        raise CliError(f"usage: algebroids {verb} {usage}")
    problem = load_problem(positional[0])
    return handler(problem, positional[1:], options)


def main(argv=None) -> int:
    try:
        return run(list(sys.argv[1:] if argv is None else argv))
    except CliError as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
