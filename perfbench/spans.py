"""Span tracing of the library's layer boundaries, installed from outside.

Nothing inside ``src/`` knows about this module. ``Tracer.install`` replaces
every binding of each boundary function -- the defining module, every
``algebroids.*`` module that imported it by name, the package namespace,
class attributes and their aliases (``__radd__ = __add__``), and the CLI's
verb table -- with a wrapper that records a span. ``uninstall`` puts the
originals back, so untraced passes run the library's own code.

A span has a name, a start, an end and a parent span. The spans of the first
traced pass are kept in compact arrays and written out when the run ends;
later passes only add to the per-boundary totals, which keeps the file small. A boundary's self time is
the summed duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute path). A dotted path names a method.
BOUNDARIES = (
    ("scalar.construct", "scalar", ("ScalarField.__init__",)),
    (
        "scalar.arith",
        "scalar",
        (
            "ScalarField.__add__",
            "ScalarField.__sub__",
            "ScalarField.__rsub__",
            "ScalarField.__mul__",
            "ScalarField.__truediv__",
            "ScalarField.__rtruediv__",
            "ScalarField.__pow__",
        ),
    ),
    ("scalar.partial", "scalar", ("ScalarField.partial",)),
    ("scalar.parse", "scalar", ("parse_expression",)),
    ("superalg.mul", "superalg", ("SuperPoly.__mul__", "SuperPoly.__rmul__")),
    (
        "superalg.add",
        "superalg",
        ("SuperPoly.__add__", "SuperPoly.__sub__", "SuperPoly.__rsub__"),
    ),
    ("superalg.left_partial", "superalg", ("SuperPoly.left_partial",)),
    ("superalg.apply", "superalg", ("SuperVectorField.apply",)),
    ("superalg.commutator", "superalg", ("commutator",)),
    ("superalg.divergence", "superalg", ("divergence", "gauge_divergence")),
    ("superalg.transport", "superalg", ("transport",)),
    ("algebroid.is_lie", "algebroid", ("is_lie", "SkewAlgebroid.is_lie")),
    ("algebroid.bracket_sections", "algebroid", ("bracket_sections",)),
    ("algebroid.schouten", "algebroid", ("schouten",)),
    ("algebroid.is_morphism", "algebroid", ("is_morphism",)),
    ("algebroid.conjugate_frame", "algebroid", ("conjugate_frame",)),
    ("modular.modular_cocycle", "modular", ("modular_cocycle",)),
    ("modular.characteristic_form", "modular", ("characteristic_form",)),
    ("modular.is_exact", "modular", ("is_exact",)),
    ("modular.cocycle_init", "modular", ("Cocycle1.__init__",)),
    ("courant.poisson_bracket", "courant", ("poisson_bracket",)),
    ("courant.hamiltonian_square", "courant", ("hamiltonian_square",)),
    ("courant.is_projectable", "courant", ("is_projectable",)),
    ("courant.project_to_E", "courant", ("project_to_E",)),
    ("courant.bidegree_split", "courant", ("bidegree_split",)),
    ("courant.derived_bracket", "courant", ("derived_bracket",)),
    ("dirac.quasi_poisson_check", "dirac", ("quasi_poisson_check",)),
    ("dirac.twisted_hamiltonian", "dirac", ("twisted_hamiltonian",)),
    ("dirac.solve_twist", "dirac", ("solve_twist",)),
    ("dirac.induced_algebroid", "dirac", ("induced_algebroid",)),
    ("dirac.relative_modular_class", "dirac", ("relative_modular_class",)),
    ("dirac.verify_morphism_cor53", "dirac", ("verify_morphism_cor53",)),
    ("dirac.gauge_transform", "dirac", ("gauge_transform",)),
    ("linalg.solve_linear", "linalg", ("solve_linear",)),
    ("linalg.invert_matrix", "linalg", ("invert_matrix",)),
    ("linalg.matrix_rank", "linalg", ("matrix_rank",)),
    ("cli.parse_problem", "cli", ("parse_problem",)),
    ("cli.verb", "cli", ()),  # the handlers in cli._VERBS, wired below
)

NAMES = tuple(name for name, _, _ in BOUNDARIES)
_CONSTRUCT = NAMES.index("scalar.construct")


def _is_const_den(den) -> bool:
    return den is None or (len(den) == 1 and not any(next(iter(den))))


class Tracer:
    """Records spans while installed; aggregates calls and self time."""

    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.const_den = 0
        # one entry per finished span, in the order spans end; a span's
        # parent is the id of the span open when it started, or -1
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self.keep_spans = True
        # open spans: [span id, start, time covered by children]
        self._stack: list = []
        self._patches: list = []

    # recording

    def _wrap(self, index: int, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        ids, names, parents = self.span_id, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_s[index] += duration - frame[2]
                calls[index] += 1
                if stack:
                    stack[-1][2] += duration
                if tracer.keep_spans:
                    ids.append(span_id)
                    names.append(index)
                    parents.append(parent)
                    starts.append(frame[1])
                    ends.append(end)

        traced.__wrapped__ = fn
        return traced

    def _wrap_construct(self, fn):
        traced = self._wrap(_CONSTRUCT, fn)
        tracer = self

        def construct(obj, chart, num, den=None):
            if _is_const_den(den):
                tracer.const_den += 1
            return traced(obj, chart, num, den)

        return construct

    def reset_stack(self) -> None:
        """Drop spans left open by an exception raised inside the wrapper
        itself, as RecursionError can be."""
        del self._stack[:]

    # installation

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Replace every binding of every boundary under ``package``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for index, (name, module_name, paths) in enumerate(BOUNDARIES):
            module = sys.modules[f"{prefix}.{module_name}"]
            for path in paths:
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    if index == _CONSTRUCT:
                        wrapper = self._wrap_construct(original)
                    else:
                        wrapper = self._wrap(index, original)
                    for alias, value in list(cls.__dict__.items()):
                        if value is original:
                            self._set(cls, alias, wrapper)
                else:
                    original = getattr(module, path)
                    wrapper = self._wrap(index, original)
                    for m in modules:
                        for alias, value in list(vars(m).items()):
                            if value is original:
                                self._set(m, alias, wrapper)
        cli = sys.modules[f"{prefix}.cli"]
        verb = NAMES.index("cli.verb")
        table = dict(cli._VERBS)
        for key, (handler, *rest) in table.items():
            table[key] = (self._wrap(verb, handler), *rest)
        self._set(cli, "_VERBS", table)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # reporting

    def metrics(self, passes: int) -> dict:
        """Calls and self seconds per traced pass. Every pass repeats the
        same work on fresh inputs, so calls divide exactly; a remainder
        would show nondeterminism and is reported as a fraction."""
        out = {}
        for i, name in enumerate(NAMES):
            calls, rest = divmod(self.calls[i], passes)
            value = calls if not rest else self.calls[i] / passes
            out[f"{name}.calls"] = {"value": value, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[i] / passes, "unit": "s"}
        total = self.calls[_CONSTRUCT]
        ratio = self.const_den / total if total else 0.0
        out["scalar.construct.const_den_ratio"] = {"value": ratio, "unit": "ratio"}
        return out

    def write(self, path) -> int:
        """Write the spans as JSON lines: id, name, parent id, start, end (s)."""
        count = len(self.span_name)
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(count):
                handle.write(
                    json.dumps(
                        [
                            self.span_id[i],
                            NAMES[self.span_name[i]],
                            self.span_parent[i],
                            round(self.span_start[i], 7),
                            round(self.span_end[i], 7),
                        ]
                    )
                )
                handle.write("\n")
        return count
