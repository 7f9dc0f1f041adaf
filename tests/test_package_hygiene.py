"""The package as source: every boundary the span tracer wraps exists, no
module imports a name it never uses, and every benchmark record the
documents cite is at the root."""

import ast
import importlib.util
import json
import re
import sys
from pathlib import Path

import algebroids
from algebroids.cli import main

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "algebroids").glob("*.py"))
TM2 = str(ROOT / "problems" / "tm2.alg")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module global and class attribute of the imported package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "algebroids" or name.startswith("algebroids.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, member in vars(value).items():
                    out[(name, attr, cls_attr)] = member
    return out


def test_span_tracer_installs_and_uninstalls(capsys):
    # install raises when a boundary it wraps by name is missing
    spans = _load_spans()
    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install(algebroids)
        assert main(["check-jacobi", TM2, "tm2"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "JACOBI: OK\n"
    calls = dict(zip(spans.NAMES, tracer.calls))
    assert calls["cli.verb"] == 1 and calls["cli.parse_problem"] == 1
    assert calls["algebroid.is_lie"] >= 1 and calls["scalar.construct"] >= 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # a package re-exports what its __all__ lists
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    assert SOURCES
    assert [hit for path in SOURCES for hit in _unused_imports(path)] == []


# The canonical form of a ScalarField (its content, numerator, denominator and
# the denominator's factor base) is scalar.py's own: every other module goes
# through public arithmetic, so no caller can hand it a non-canonical value.
_SCALAR_PRIVATE = {"_k", "_n", "_d", "_f", "_u", "_canonical"}


def _scalar_internals(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _SCALAR_PRIVATE
    ]


def test_no_module_outside_scalar_reads_its_canonical_form():
    others = [path for path in SOURCES if path.name != "scalar.py"]
    assert len(others) == len(SOURCES) - 1
    assert [hit for path in others for hit in _scalar_internals(path)] == []


def test_every_cited_benchmark_record_exists_and_states_its_claim():
    cited = set()
    for doc in ("README.md", "CHANGES.md"):
        cited.update(re.findall(r"BENCH_\d+\.json", (ROOT / doc).read_text(encoding="utf-8")))
    assert cited
    for name in sorted(cited):
        path = ROOT / name
        assert path.is_file(), f"{name} is cited but missing"
        record = json.loads(path.read_text(encoding="utf-8"))
        if "claim" in record:
            claim = record["claim"]
            assert {"metric", "workload", "met"} <= claim.keys(), f"{name}'s claim lacks a field"
            assert isinstance(claim["met"], bool)
