"""Whole-program analysis: fixtures, call graph, layer config.

The fixture scenarios under ``fixtures/project/`` mirror the style of
the per-file rule fixtures: every ``# expect: RAxxx`` marker must fire
at exactly that line, and nothing else may fire.  ``analyze_project``
runs them with ``select=PROJECT_RULES`` so the per-file families stay
out of the comparison.
"""

import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (PROJECT_RULES, analyze_project, find_table,
                            read_table)
from repro.analysis.callgraph import (ProjectGraph, extract_facts,
                                      module_name_for)
from repro.analysis.engine import parse_module
from repro.analysis.layers import LayerConfigError, layers_from_table
from repro.analysis.tables import _fallback_read_table

FIXTURES = Path(__file__).parent / "fixtures" / "project"
REPO_ROOT = Path(__file__).resolve().parents[2]

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<codes>[A-Z0-9,\s]+)")


def expected_violations(scenario_dir):
    out = []
    for path in sorted(scenario_dir.rglob("*.py")):
        rel = str(path.relative_to(scenario_dir))
        for lineno, text in enumerate(
                path.read_text().splitlines(), start=1):
            match = _EXPECT_RE.search(text)
            if not match:
                continue
            for code in match.group("codes").split(","):
                if code.strip():
                    out.append((rel, lineno, code.strip()))
    return out


def run_scenario(name):
    scenario = FIXTURES / name
    report = analyze_project([scenario], select=PROJECT_RULES,
                             root=scenario)
    return report


@pytest.mark.parametrize("name", ["locks", "layers", "determinism",
                                  "fixable", "lifecycle", "durability"])
def test_scenario_fires_exactly_the_marked_rules(name):
    report = run_scenario(name)
    got = Counter((v.path, v.line, v.code) for v in report.violations)
    want = Counter(expected_violations(FIXTURES / name))
    assert got == want, (
        f"{name}: expected {sorted(want.elements())}, "
        f"got {sorted(got.elements())}")


def test_lock_report_names_guard_and_remedy():
    report = run_scenario("locks")
    by_line = {v.line: v for v in report.violations}
    read = next(v for v in by_line.values() if "is read" in v.message)
    assert "lock-guarded in `Meter.add`" in read.message
    assert "_locked" in read.message


def test_layer_report_names_the_table_edge():
    report = run_scenario("layers")
    assert report.violations
    assert all("'util' -> 'core'" in v.message
               for v in report.violations)


def test_deadlock_report_names_both_acquisition_sites():
    report = run_scenario("lifecycle")
    cycles = [v for v in report.violations if v.code == "RA801"]
    assert len(cycles) == 2, "both directions of the 2-cycle report"
    first = next(v for v in cycles if v.line == 12)
    assert "`LOCK_B` is acquired while `LOCK_A` is held" in first.message
    assert "deadlock.py:18" in first.message, \
        "the message must name the opposite-order acquisition site"


def test_transitive_blocking_report_names_the_locked_caller():
    report = run_scenario("lifecycle")
    transitive = next(v for v in report.violations
                      if v.code == "RA802" and "_slow_flush" in v.message)
    assert "called via blocking.py:21 in `flush_through_helper`" \
        in transitive.message
    assert "_locked" in transitive.message, "the remedy names the escape"


def test_durability_report_names_pattern_and_protocol():
    report = run_scenario("durability")
    ordering = next(v for v in report.violations
                    if "after the manifest" in v.message)
    assert ordering.line == 37
    assert "(line 35)" in ordering.message
    in_place = next(v for v in report.violations if v.line == 19)
    assert "tracked artifact `data.json`" in in_place.message
    assert "os.replace" in in_place.message


def test_no_orphaned_noqa_markers_in_source_tree(monkeypatch):
    """Every inline `# repro: noqa[RAxxx]` must still suppress a live
    finding: with suppression plumbing disabled, re-analysis must fire
    each suppressed code on each marker line (else the marker is stale
    documentation and should be deleted)."""
    from repro.analysis import suppressed_lines
    from repro.analysis.base import RULES
    from repro.analysis import base as base_mod, callgraph

    markers = []  # (display path, line, code)
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        # tokenize so only real COMMENT markers count — docstrings
        # documenting the `# repro: noqa[RAxxx]` syntax are not
        # suppressions
        tokens = tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline)
        for tok_type, tok_string, (lineno, _), _, _ in tokens:
            if tok_type != tokenize.COMMENT:
                continue
            parsed = suppressed_lines(tok_string)
            if not parsed:
                continue
            codes = parsed[1]
            assert codes is not None and codes, (
                f"{path}:{lineno}: bare `# repro: noqa` hides every "
                "rule; list the codes being suppressed")
            for code in codes:
                if not re.fullmatch(r"RA\d+", code):
                    continue  # syntax placeholder (RAxxx), not a rule
                assert code in RULES, (
                    f"{path}:{lineno}: noqa names unknown rule {code}")
                markers.append(
                    (str(path.relative_to(REPO_ROOT)), lineno, code))
    assert markers, "the source tree is known to carry noqa markers"

    def no_suppression(source):
        return {}

    # both suppression paths read the same helper: the per-file filter
    # (apply_suppressions, via base's namespace) and the link-time
    # ModuleFacts.suppressed table built in callgraph.extract_facts
    monkeypatch.setattr(base_mod, "suppressed_lines", no_suppression)
    monkeypatch.setattr(callgraph, "suppressed_lines", no_suppression)
    report = analyze_project([src], root=REPO_ROOT)
    fired = {(v.path, v.line, v.code) for v in report.violations}
    orphans = [m for m in markers if m not in fired]
    assert orphans == [], (
        "stale noqa markers (no live finding on that line): "
        + ", ".join(f"{p}:{line} [{code}]" for p, line, code in orphans))


def test_repo_source_tree_is_project_clean():
    """The acceptance gate: the repo obeys its own semantic rules."""
    report = analyze_project([REPO_ROOT / "src"], root=REPO_ROOT)
    assert report.files_scanned > 50
    assert report.violations == [], "\n".join(
        v.render() for v in report.violations)


def read_layers_table(pyproject):
    table = read_table(pyproject, "layers")
    return None if table is None else layers_from_table(*table)


def test_repo_layer_table_is_loadable_and_matches_packages():
    config = read_layers_table(REPO_ROOT / "pyproject.toml")
    assert config is not None and config.root == "repro"
    packages = {p.name for p in (REPO_ROOT / "src" / "repro").iterdir()
                if p.is_dir() and (p / "__init__.py").exists()}
    declared = set(config.allowed) - {"repro"}
    assert packages == declared, (
        "every package must be declared in [tool.repro.layers] "
        f"(missing: {packages - declared}, stale: {declared - packages})")


# -- module naming & call-graph resolution ------------------------------------


def test_module_name_walks_package_tree(tmp_path):
    pkg = tmp_path / "top" / "sub"
    pkg.mkdir(parents=True)
    (tmp_path / "top" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("")
    assert module_name_for(pkg / "mod.py") == "top.sub.mod"
    assert module_name_for(pkg / "__init__.py") == "top.sub"
    (tmp_path / "script.py").write_text("")
    assert module_name_for(tmp_path / "script.py") == "script"


def _facts_for(tmp_path, rel, source, roots):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    context = parse_module(source, path, rel)
    return extract_facts(context, module_name_for(path), frozenset(roots))


def test_call_graph_follows_package_reexports(tmp_path):
    (tmp_path / "pkg").mkdir()
    init = _facts_for(tmp_path, "pkg/__init__.py",
                      "from .impl import run\n", {"pkg"})
    # create the real package layout first so module names resolve
    impl = _facts_for(tmp_path, "pkg/impl.py",
                      "STATE = []\n\n\ndef run():\n    STATE.append(1)\n",
                      {"pkg"})
    main = _facts_for(
        tmp_path, "main.py",
        "import pkg\n\n\ndef go():\n    pkg.run()\n",
        {"pkg"})
    graph = ProjectGraph.link([init, impl, main])
    assert graph.resolve_callable("pkg.run") == ("pkg.impl", "run")
    origin = graph.reachable_from([("main", "go")])
    assert set(origin) == {("main", "go"), ("pkg.impl", "run")}


def test_call_graph_resolves_class_instantiation_to_init(tmp_path):
    facts = _facts_for(
        tmp_path, "mod.py",
        "class Worker:\n"
        "    def __init__(self):\n"
        "        Worker.count = 1\n",
        {"mod"})
    graph = ProjectGraph.link([facts])
    assert graph.resolve_callable("mod.Worker") == \
        ("mod", "Worker.__init__")
    assert graph.resolve_callable("mod.Worker.missing") is None
    assert graph.resolve_callable("nowhere.at.all") is None


def test_unresolvable_calls_add_no_edges(tmp_path):
    facts = _facts_for(
        tmp_path, "mod.py",
        "def go(thing):\n    thing.run()\n    unknown_name()\n",
        {"mod"})
    graph = ProjectGraph.link([facts])
    origin = graph.reachable_from([("mod", "go")])
    assert set(origin) == {("mod", "go")}


# -- layer configuration ------------------------------------------------------


def _write_pyproject(tmp_path, body):
    path = tmp_path / "pyproject.toml"
    path.write_text(body)
    return path


def test_cyclic_layer_table_is_rejected(tmp_path):
    path = _write_pyproject(tmp_path, (
        "[tool.repro.layers]\n"
        'root = "x"\n'
        'a = ["b"]\n'
        'b = ["a"]\n'))
    with pytest.raises(LayerConfigError, match="cyclic"):
        read_layers_table(path)


def test_unknown_layer_reference_is_rejected(tmp_path):
    path = _write_pyproject(tmp_path, (
        "[tool.repro.layers]\n"
        'a = ["ghost"]\n'))
    with pytest.raises(LayerConfigError, match="ghost"):
        read_layers_table(path)


def test_missing_table_returns_none(tmp_path):
    path = _write_pyproject(tmp_path, "[tool.other]\nx = 1\n")
    assert read_layers_table(path) is None


def test_find_layer_config_walks_up(tmp_path):
    _write_pyproject(tmp_path, (
        "[tool.repro.layers]\n"
        'root = "x"\n'
        "a = []\n"))
    nested = tmp_path / "deep" / "er"
    nested.mkdir(parents=True)
    (nested / "mod.py").write_text("")
    for start in (nested, nested / "mod.py"):
        table = find_table(start, "layers")
        assert table is not None
        assert table.source == str(tmp_path / "pyproject.toml")
        assert layers_from_table(*table).root == "x"


def test_fallback_parser_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    pyprojects = [REPO_ROOT / "pyproject.toml",
                  *sorted(FIXTURES.glob("*/pyproject.toml"))]
    compared = set()
    for path in pyprojects:
        text = path.read_text()
        tables = tomllib.loads(text).get("tool", {}).get("repro", {})
        for name in ("layers", "determinism", "durability"):
            fallback = _fallback_read_table(text, str(path),
                                            f"tool.repro.{name}")
            assert fallback == tables.get(name), (path, name)
            if name in tables:
                compared.add(name)
    assert compared == {"layers", "determinism", "durability"}


def test_wildcard_layer_may_import_anything(tmp_path):
    config = read_layers_table(_write_pyproject(tmp_path, (
        "[tool.repro.layers]\n"
        'root = "x"\n'
        'glue = ["*"]\n'
        "leaf = []\n")))
    assert config.permits("glue", "leaf")
    assert config.permits("glue", "glue")
    assert not config.permits("leaf", "glue")
