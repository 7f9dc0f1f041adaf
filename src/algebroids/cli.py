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

Each verb's usage line in ``_VERBS`` is its one signature: ``run`` reads the
positional slots and the allowed options off it, ``--help`` prints it, and
README's command block lists exactly the lines ``--help`` prints.
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
from .scalar import BaseChart, ParseError, parse_scalar
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


def _parse(parse, text: str, context, prefix: str):
    """parse(text, context), a parse error reported as an input error."""
    try:
        return parse(text, context)
    except ParseError as e:
        raise CliError(f"{prefix}: {e}") from None


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
        """The object declared as name; kind may join kinds with '-or-'."""
        kinds = kind.split("-or-")
        for k in kinds:
            pool = getattr(self, k + "s")
            if name in pool:
                return pool[name]
        kind = " or ".join(kinds)
        if name in self.kinds:
            raise CliError(f"{name!r} is {_an(self.kinds[name])}, not {_an(kind)}")
        raise CliError(f"undeclared {kind} {name!r}")


def _ref_algebroid(problem: Problem, name: str, where: str) -> SkewAlgebroid:
    try:
        return problem.lookup("algebroid", name)
    except CliError as e:
        raise CliError(f"{where}: {e}") from None


# (section kind, entry key) -> (number of indices, range test, range message);
# the test gets the section and the indices
_ENTRIES = {
    ("chart", "coords"): (0, None, None),
    ("algebroid", "rank"): (0, None, None),
    ("algebroid", "c"): (
        3,
        lambda s, i, j, k: 1 <= i < j <= s.rank and 1 <= k <= s.rank,
        "structure index ({},{},{}) needs 1 <= i < j <= rank",
    ),
    ("algebroid", "rho"): (
        2,
        lambda s, i, a: 1 <= i <= s.rank and 1 <= a <= s.problem.chart.m,
        "anchor index ({},{}) out of range",
    ),
    ("morphism", "phi"): (
        2,
        lambda s, i, j: 1 <= i <= s.source.rank and 1 <= j <= s.target.rank,
        "matrix index ({},{}) out of range",
    ),
    ("hamiltonian", "phi"): (
        3,
        lambda s, i, j, k: 1 <= i < j < k <= s.rank,
        "twist index ({},{},{}) needs 1 <= i < j < k <= {n}",
    ),
    ("hamiltonian", "term"): (0, None, None),
    ("bivector", "P"): (
        2,
        lambda s, i, j: 1 <= i < j <= s.rank,
        "bivector index ({},{}) needs 1 <= i < j <= {n}",
    ),
    ("frame", "D"): (1, lambda s, a: 1 <= a <= s.rank, "frame index {} out of range"),
}
_SHAPES = {
    "chart": "chart sections take a single 'coords' entry",
    "algebroid": "algebroid entries are 'rank', 'c i j k', or 'rho i a'",
    "morphism": "morphism entries look like 'phi i j = <expr>'",
    "hamiltonian": "hamiltonian entries are 'phi i j k' or 'term'",
    "bivector": "bivector entries look like 'P i j = <expr>'",
    "frame": "frame entries look like 'D a = <expr>'",
}


class _Section:
    """One in-progress file section; finish() registers the built object.

    Every entry is kept under (key, *indices), in file order. An algebroid's
    rank comes from its 'rank' entry, any other section's from its algebroid.
    """

    def __init__(self, problem: Problem, header: str, where: str):
        self.problem = problem
        self.where = where
        self.entries = {}
        self.rank = None
        fields = header.split()
        morphism = _MORPHISM_HEADER.match(header)
        if header == "chart":
            self.kind = "chart"
        elif morphism:
            self.kind = "morphism"
            self.name, src, dst = morphism.groups()
            self.source = _ref_algebroid(problem, src, where)
            self.target = _ref_algebroid(problem, dst, where)
        elif len(fields) == 2 and fields[0] == "algebroid":
            self.kind, self.name = fields
        elif len(fields) == 4 and fields[0] in ("hamiltonian", "bivector", "frame") and fields[2] == "on":
            self.kind, self.name = fields[:2]
            self.algebroid = _ref_algebroid(problem, fields[3], where)
            self.rank = self.algebroid.rank
        else:
            raise CliError(f"{where}: unrecognized section header [{header}]")
        if self.kind != "chart" and not _IDENT.match(self.name):
            raise CliError(f"{where}: bad name {self.name!r}")
        if self.kind != "chart" and problem.chart is None:
            raise CliError(f"{where}: no [chart] section declared yet")

    def add(self, key: str, fields, rhs: str, where: str):
        if self.kind == "algebroid" and self.rank is None and (key, fields) != ("rank", []):
            raise CliError(f"{where}: 'rank = n' must come before structure entries")
        spec = _ENTRIES.get((self.kind, key))
        if spec is None or len(fields) != spec[0]:
            raise CliError(f"{where}: {_SHAPES[self.kind]}")
        _, in_range, message = spec
        indices = _ints(fields, where)
        if in_range is not None and not in_range(self, *indices):
            raise CliError(f"{where}: {message.format(*indices, n=self.rank)}")
        # terms may repeat and add up, so each is numbered
        entry = (key, len(self.entries)) if key == "term" else (key, *indices)
        if entry in self.entries:
            what = f"entry {key} {' '.join(map(str, indices))}" if indices else f"{key} entry"
            raise CliError(f"{where}: duplicate {what}")
        self.entries[entry] = self._value(key, rhs, where)

    def _value(self, key: str, rhs: str, where: str):
        if key == "coords":
            names = rhs.split()
            cap = _MAX_GENERATORS // 2 - 1
            if len(names) > cap:
                raise CliError(f"{where}: at most {cap} coordinates")
            try:
                chart = BaseChart(tuple(names))
            except ValueError as e:
                raise CliError(f"{where}: {e}") from None
            for name in names:
                if _GENERATED.match(name):
                    raise CliError(
                        f"{where}: coordinate name {name!r} is reserved for the"
                        " generated y*, xi* and p* names"
                    )
            return chart
        if key == "rank":
            try:
                self.rank = int(rhs)
            except ValueError:
                raise CliError(f"{where}: rank must be an integer") from None
            if self.rank < 1:
                raise CliError(f"{where}: rank must be at least 1")
            cap = _MAX_GENERATORS // 2 - self.problem.chart.m
            if self.rank > cap:
                raise CliError(f"{where}: rank must be at most {cap} on this chart")
            return self.rank
        if key in ("term", "D"):
            value = _parse(parse_super, rhs, self.problem.space(self.rank).table, where)
            if key == "D" and (value.is_zero or value != value.degree_part(1)):
                raise CliError(f"{where}: frame members must be homogeneous of degree 1 in y, xi")
            return value
        return _parse(parse_scalar, rhs, self.problem.chart, where)

    def _keyed(self, key: str) -> dict:
        """The entries under key, by their indices, in file order."""
        return {entry[1:]: value for entry, value in self.entries.items() if entry[0] == key}

    def finish(self):
        problem, where = self.problem, self.where
        if self.kind == "chart":
            if problem.chart is not None:
                raise CliError(f"{where}: only one [chart] section is allowed")
            if not self.entries:
                raise CliError(f"{where}: chart section needs a 'coords' entry")
            problem.chart = self.entries[("coords",)]
            return
        try:
            if self.kind == "algebroid":
                if self.rank is None:
                    raise CliError(f"{where}: algebroid section needs a 'rank' entry")
                obj = SkewAlgebroid(problem.chart, self.rank, self._keyed("c"), self._keyed("rho"))
            elif self.kind == "morphism":
                obj = AlgebroidMorphism(self.source, self.target, self._keyed("phi"))
            elif self.kind == "hamiltonian":
                obj = self._finish_hamiltonian()
            elif self.kind == "bivector":
                obj = Bivector(problem.space(self.rank), self._keyed("P"))
            else:
                obj = self._finish_frame()
        except ValueError as e:
            raise CliError(f"{where}: {e}") from None
        problem.register(self.kind, self.name, obj, where)

    def _finish_hamiltonian(self) -> Hamiltonian:
        space = self.problem.space(self.rank)
        value = algebroid_hamiltonian(self.algebroid, space).value
        value = value + standard_hamiltonian(space, {}, self._keyed("phi")).value
        for extra in self._keyed("term").values():
            value = value + extra
        return Hamiltonian(space, value)

    def _finish_frame(self) -> DiracFrame:
        n = self.rank
        members = self._keyed("D")
        missing = [str(a) for a in range(1, n + 1) if (a,) not in members]
        if missing:
            raise CliError(f"{self.where}: frame is missing members D {', D '.join(missing)}")
        return DiracFrame(self.problem.space(n), [members[(a,)] for a in range(1, n + 1)])


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

def _report(code: int, *lines) -> int:
    """Print the report lines; code is the exit status."""
    print(*lines, sep="\n")
    return code

def _section_arg(text: str, space) -> SuperPoly:
    value = _parse(parse_super, text, space.table, f"section {text!r}")
    if value != value.degree_part(1):
        raise CliError("section must be homogeneous of degree 1")
    return value

def _covector_arg(text: str, A: SkewAlgebroid, what: str) -> SuperPoly:
    value = _parse(parse_super, text, A.table(), f"{what} {text!r}")
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

def _not_quasi_poisson(P: Bivector, H: Hamiltonian):
    """The failure line of the twisted verbs' shared precondition, or None."""
    try:
        flag, obstruction = quasi_poisson_check(P, H)
    except ValueError as e:
        raise CliError(str(e)) from None
    return None if flag else f"QUASI-POISSON: NO, obstruction = {obstruction}"

def _dirac_fail(e: DiracClosureError) -> int:
    a, b = e.pair
    return _report(1, f"DIRAC: FAIL, bracket ({a},{b}) leaves the span, residual = {e.residual}")


# verbs: each takes the objects and inline texts of its usage line, in order,
# and its options as keywords

def _cmd_check_jacobi(A):
    flag, certificate = is_lie(A)
    return _report(0, "JACOBI: OK") if flag else _report(1, f"JACOBI: FAIL, [d,d] = {certificate}")

def _cmd_modular(A, gauge=None):
    if gauge is not None:
        gauge = _parse(parse_scalar, gauge, A.chart, f"gauge {gauge!r}")
        if gauge.is_zero:
            raise CliError("gauge must be a nonzero function")
    return _report(0, f"MODULAR COCYCLE: {modular_cocycle(A, gauge).value}")

def _cmd_exact(A, text, bound=None):
    value = _covector_arg(text, A, "cocycle")
    try:
        cocycle = Cocycle1(A, value)
    except ValueError as e:
        raise CliError(str(e)) from None
    if bound is not None:
        try:
            bound = int(bound)
        except ValueError:
            raise CliError("--bound must be an integer") from None
        if bound < 1:
            raise CliError("--bound must be at least 1")
        over = ""
    else:
        bound = exact_bound(value)
        over = f"default degree bound {bound} is over budget; "
    cap = _max_bound(A.chart.m)
    if bound > cap:
        raise CliError(f"{over}--bound must be at most {cap}")
    flag, witness = is_exact(A, cocycle, bound)
    if flag:
        return _report(0, f"EXACT: YES, f = {witness}")
    return _report(1, f"EXACT: NO (degree bound {bound})")

def _cmd_morphism_check(phi):
    flag, certificate = is_morphism(phi)
    if flag:
        return _report(0, "MORPHISM: OK")
    name, defect = certificate
    return _report(1, f"MORPHISM: FAIL, at {name}, defect = {defect}")

def _cmd_morphism_mod(phi):
    if not is_morphism(phi)[0]:
        # the verdict is memoised on phi, so this reprints it without a rerun
        return _cmd_morphism_check(phi)
    return _report(0, f"MORPHISM MODULAR CLASS: {modular_class_of_morphism(phi).value}")

def _cmd_courant_check(H):
    square = hamiltonian_square(H)
    if square.is_zero:
        return _report(0, "COURANT: OK")
    return _report(1, f"COURANT: FAIL, {{H,H}} = {square}")

def _cmd_dorfman(H, first, second):
    X = _section_arg(first, H.space)
    Y = _section_arg(second, H.space)
    return _report(0, f"DORFMAN: {derived_bracket(X, Y, H)}")

def _cmd_projectable(H):
    return _report(0, "PROJECTABLE: YES") if is_projectable(H) else _report(1, _not_projectable(H))

def _cmd_project(H):
    if not is_projectable(H):
        return _report(1, _not_projectable(H))
    A = project_to_E(H)
    homological = "YES" if hamiltonian_square(H).is_zero else "NO"
    lines = _structure_lines(A)
    return _report(0, f"PROJECTED ALGEBROID: rank {A.rank}", *lines, f"HOMOLOGICAL: {homological}")

def _cmd_quasi_poisson(P, H):
    failure = _not_quasi_poisson(P, H)
    return _report(1, failure) if failure else _report(0, "QUASI-POISSON: YES")

def _cmd_twisted_bracket(P, H, first, second):
    failure = _not_quasi_poisson(P, H)
    if failure:
        return _report(1, failure)
    A = project_to_E(H)
    alpha = _covector_arg(first, A, "covector")
    beta = _covector_arg(second, A, "covector")
    return _report(0, f"TWISTED BRACKET: {twisted_bracket(P, H, alpha, beta)}")

def _cmd_dirac_check(frame, H):
    try:
        induced = induced_algebroid(frame, H)
    except DiracClosureError as e:
        return _dirac_fail(e)
    except ValueError as e:
        raise CliError(str(e)) from None
    return _report(0, f"DIRAC: OK, rank {induced.rank}", *_structure_lines(induced))

def _cmd_relative_modular(frame, H):
    if isinstance(frame, Bivector):
        frame = graph_frame(frame)
    try:
        cocycle = relative_modular_class(frame, H)
    except DiracClosureError as e:
        return _dirac_fail(e)
    except ValueError as e:
        raise CliError(str(e)) from None
    return _report(0, f"RELATIVE MODULAR CLASS: {cocycle.value}")

def _cmd_verify_cor53(P, H):
    failure = _not_quasi_poisson(P, H)
    if failure:
        return _report(1, failure)
    ok, certificate = verify_morphism_cor53(P, H)
    if ok:
        return _report(0, "COR53: OK")
    name, defect = certificate
    return _report(1, f"COR53: FAIL, at {name}, defect = {defect}")


# verb -> (handler, usage). The usage line is the verb's one signature: run()
# reads its positional slots and its [--option VALUE] options off it.
_VERBS = {
    "check-jacobi": (_cmd_check_jacobi, "FILE ALGEBROID"),
    "modular": (_cmd_modular, "FILE ALGEBROID [--gauge EXPR]"),
    "exact": (_cmd_exact, "FILE ALGEBROID COCYCLE [--bound N]"),
    "morphism-check": (_cmd_morphism_check, "FILE MORPHISM"),
    "morphism-mod": (_cmd_morphism_mod, "FILE MORPHISM"),
    "courant-check": (_cmd_courant_check, "FILE HAMILTONIAN"),
    "dorfman": (_cmd_dorfman, "FILE HAMILTONIAN SECTION SECTION"),
    "projectable": (_cmd_projectable, "FILE HAMILTONIAN"),
    "project": (_cmd_project, "FILE HAMILTONIAN"),
    "quasi-poisson": (_cmd_quasi_poisson, "FILE BIVECTOR HAMILTONIAN"),
    "twisted-bracket": (_cmd_twisted_bracket, "FILE BIVECTOR HAMILTONIAN COVECTOR COVECTOR"),
    "dirac-check": (_cmd_dirac_check, "FILE FRAME HAMILTONIAN"),
    "relative-modular": (_cmd_relative_modular, "FILE FRAME-OR-BIVECTOR HAMILTONIAN"),
    "verify-cor53": (_cmd_verify_cor53, "FILE BIVECTOR HAMILTONIAN"),
}
# slots handed over as typed; every other slot after FILE names an object
_TEXT_SLOTS = ("SECTION", "COCYCLE", "COVECTOR")


def _usage() -> str:
    lines = ["usage: algebroids VERB FILE ARGS..."]
    for verb in sorted(_VERBS):
        lines.append(f"  algebroids {verb} {_VERBS[verb][1]}")
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
    handler, usage = _VERBS[verb]
    positional, options = _split_args(argv[1:], re.findall(r"\[--(\w+)", usage))
    slots = usage.split(" [")[0].split()
    if len(positional) != len(slots):
        raise CliError(f"usage: algebroids {verb} {usage}")
    problem = load_problem(positional[0])
    args = [
        text if slot in _TEXT_SLOTS else problem.lookup(slot.lower(), text)
        for slot, text in zip(slots[1:], positional[1:])
    ]
    return handler(*args, **options)


def main(argv=None) -> int:
    try:
        return run(list(sys.argv[1:] if argv is None else argv))
    except CliError as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
