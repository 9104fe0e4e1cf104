"""RA7xx determinism dataflow: config, reachability, scope warnings.

The marker-driven scenario test lives in ``test_project.py`` (the
``determinism`` fixture); this module covers the pieces markers cannot
express — config parsing and errors, the shared table walk-up,
entry-point resolution, exemption and suppression, and RA700/RA800.
"""

from pathlib import Path

import pytest

import repro.analysis.dataflow as dataflow
import repro.analysis.tables as tables
from repro.analysis import (PROJECT_RULES, analyze_project,
                            determinism_from_table, find_table,
                            read_table)
from repro.analysis.dataflow import DeterminismConfigError

FIXTURES = Path(__file__).parent / "fixtures" / "project"
REPO_ROOT = Path(__file__).resolve().parents[2]

TABLE_NAMES = ("layers", "determinism", "durability")


def _analyze(tree, **kwargs):
    return analyze_project([tree], select=PROJECT_RULES, root=tree,
                           **kwargs)


def read_determinism_table(pyproject):
    table = read_table(pyproject, "determinism")
    return None if table is None else determinism_from_table(*table)


# -- configuration ------------------------------------------------------------


def _write_pyproject(tmp_path, body):
    path = tmp_path / "pyproject.toml"
    path.write_text(body)
    return path


def test_repo_determinism_table_loads():
    config = read_determinism_table(REPO_ROOT / "pyproject.toml")
    assert config is not None
    assert set(config.contracts) == {
        "scenario-feed", "rolling-window", "snapshot-restore",
        "bgp-equivalence", "cms-loop", "sharded-serving"}
    assert config.exempt == ("repro.obs",)
    assert config.is_exempt("repro.obs.metrics")
    assert not config.is_exempt("repro.observatory")


def test_direct_keys_are_contract_sugar(tmp_path):
    config = read_determinism_table(_write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'roundtrip = ["pkg.mod"]\n')))
    assert config.contracts == {"roundtrip": ("pkg.mod",)}


def test_non_list_entry_is_rejected(tmp_path):
    path = _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'exempt = "not-a-list"\n'))
    with pytest.raises(DeterminismConfigError, match="exempt"):
        read_determinism_table(path)


def test_non_string_entry_is_rejected(tmp_path):
    path = _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        "bad = [1, 2]\n"))
    with pytest.raises(DeterminismConfigError, match="bad"):
        read_determinism_table(path)


def test_missing_table_returns_none(tmp_path):
    path = _write_pyproject(tmp_path, "[tool.other]\nx = 1\n")
    for name in TABLE_NAMES:
        assert read_table(path, name) is None


def test_find_determinism_config_walks_up(tmp_path):
    # one walk-up serves all three tables: each is found from a nested
    # directory, and only under its own name
    for name in TABLE_NAMES:
        root = tmp_path / name
        nested = root / "deep" / "er"
        nested.mkdir(parents=True)
        _write_pyproject(root, f'[tool.repro.{name}]\nc = ["m"]\n')
        table = find_table(nested, name)
        assert table is not None
        assert table.values == {"c": ["m"]}
        assert table.source == str(root / "pyproject.toml")
        for other in TABLE_NAMES:
            if other != name:
                found = find_table(nested, other)
                assert found is None or found.source != table.source
    config = determinism_from_table(
        *find_table(tmp_path / "determinism" / "deep", "determinism"))
    assert config.contracts == {"c": ("m",)}


def test_empty_table_stops_the_walk_up(tmp_path):
    # fixture trees rely on this: an empty [tool.repro.<name>] shadows
    # any table further up instead of falling through to it
    nested = tmp_path / "sub"
    nested.mkdir()
    for name in TABLE_NAMES:
        _write_pyproject(tmp_path, f'[tool.repro.{name}]\nc = ["m"]\n')
        _write_pyproject(nested, f"[tool.repro.{name}]\n")
        table = find_table(nested, name)
        assert table is not None and table.values == {}
        assert table.source == str(nested / "pyproject.toml")
        if name == "determinism":
            assert determinism_from_table(*table).contracts == {}


def test_fallback_parser_matches_tomllib(monkeypatch):
    pytest.importorskip("tomllib")
    pyproject = REPO_ROOT / "pyproject.toml"
    with_tomllib = {name: read_table(pyproject, name)
                    for name in TABLE_NAMES}
    assert all(table is not None for table in with_tomllib.values())
    monkeypatch.setattr(tables, "tomllib", None)
    for name in TABLE_NAMES:
        assert read_table(pyproject, name) == with_tomllib[name]
    assert read_determinism_table(pyproject) == determinism_from_table(
        *with_tomllib["determinism"])


# -- reachability & reporting -------------------------------------------------


def test_exempt_module_is_reachable_but_silent():
    report = _analyze(FIXTURES / "determinism")
    assert not any("metrics.py" in v.path for v in report.violations)


def test_unreached_function_is_silent():
    # agg.offline_report is full of sites but no contract reaches it
    report = _analyze(FIXTURES / "determinism")
    assert not any(v.line > 45 and "agg.py" in v.path
                   for v in report.violations)


def test_noqa_suppresses_a_contract_site():
    report = _analyze(FIXTURES / "determinism")
    assert not any(v.code == "RA701" and v.line == 35
                   for v in report.violations)


def test_message_names_contract_entry_and_remedy():
    report = _analyze(FIXTURES / "determinism")
    ra701 = next(v for v in report.violations if v.code == "RA701")
    assert "`shard-equivalence`" in ra701.message
    assert "reachable from `agg.merge_shards`" in ra701.message
    assert "sorted(...)" in ra701.message


def test_messages_name_the_remedy():
    # the remedy lives in the message: what to wrap, what to call, and
    # for RA703 which dtype to pin when the call's arguments decide it
    report = _analyze(FIXTURES / "fixable")
    by_line = {v.line: v for v in report.violations}
    assert "sorted(...)" in by_line[18].message
    assert "math.fsum" in by_line[13].message
    assert "pin dtype=float64" in by_line[24].message   # np.zeros(n)
    assert "pin dtype=int64" in by_line[28].message     # dtype=np.int_


def _contract_sites(tmp_path, expr):
    # one function on a contract, returning `expr`: what does it report?
    tmp_path.mkdir(exist_ok=True)
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'c = ["mod.run"]\n'))
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n\nimport glob\nimport os\nfrom pathlib import Path\n\n'
        "import numpy as np\n\n\n"
        f"def run(d, xs, ys, n):\n    return {expr}\n")
    return _analyze(tmp_path).violations


@pytest.mark.parametrize("producer", [
    "os.listdir(d)", "os.scandir(d)", "glob.glob(d)", "glob.iglob(d)",
    "Path(d).iterdir()", "Path(d).glob('*')", "Path(d).rglob('*')",
    "set(xs)", "frozenset(xs)", "{x for x in xs}", "set(xs) | ys",
    "set(xs).union(ys)",
])
def test_unordered_producers_feed_ra701_until_sorted(producer, tmp_path):
    listed = _contract_sites(tmp_path / "listed", f"list({producer})")
    assert [v.code for v in listed] == ["RA701"]
    assert "sorted(...)" in listed[0].message
    assert _contract_sites(tmp_path / "sorted",
                           f"sorted({producer})") == []


@pytest.mark.parametrize("call, dtype", [
    ("np.zeros(n)", "float64"),
    ("np.ones(n)", "float64"),
    ("np.empty(n)", "float64"),
    ("np.arange(3)", "int64"),
    ("np.arange(0, 1.5, 0.5)", "float64"),
    ("np.full(n, 7)", "int64"),
    ("np.full(n, 0.5)", "float64"),
    ("np.array(xs, dtype=int)", "int64"),
    ("np.asarray(xs, dtype=np.intp)", "int64"),
    ("np.array(xs)", None),
    ("np.arange(n)", None),
])
def test_ra703_message_names_the_dtype_to_pin(call, dtype, tmp_path):
    # the dtype is named wherever the call's arguments decide it; data-
    # dependent inference only says a platform-stable dtype is needed
    found = _contract_sites(tmp_path, call)
    assert [v.code for v in found] == ["RA703"]
    message = found[0].message
    assert "pin an explicit platform-stable dtype" in message
    if dtype is None:
        assert "pin dtype=" not in message
    else:
        assert f"pin dtype={dtype}" in message


def test_pinned_dtypes_are_silent(tmp_path):
    assert _contract_sites(
        tmp_path, "(np.zeros(n, dtype=np.float64), "
                  "np.array(xs, dtype=np.int64), "
                  "np.arange(n, dtype='int64'))") == []


def test_module_entry_covers_module_level_statements():
    report = _analyze(FIXTURES / "determinism")
    assert any(v.code == "RA703" and "persist.py" in v.path
               and v.line == 5 for v in report.violations)


def test_unresolvable_entry_fires_ra700(tmp_path):
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'ghost-contract = ["nowhere.at_all"]\n'))
    (tmp_path / "mod.py").write_text('"""Doc."""\n')
    report = _analyze(tmp_path)
    assert [v.code for v in report.violations] == ["RA700"]
    violation = report.violations[0]
    assert "ghost-contract" in violation.message
    assert "nowhere.at_all" in violation.message
    assert violation.path.endswith("pyproject.toml")


def test_entry_resolves_through_package_reexport(tmp_path):
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'api = ["pkg.run"]\n'))
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        '"""Doc."""\nfrom .impl import run\n')
    (pkg / "impl.py").write_text(
        '"""Doc."""\n\n\ndef run(xs):\n    return sum(set(xs))\n')
    report = _analyze(tmp_path)
    assert [v.code for v in report.violations] == ["RA702"]
    assert "impl.py" in report.violations[0].path


def test_sum_with_start_argument_rules_out_fsum(tmp_path):
    # math.fsum takes exactly one iterable: sum(xs, start) is reported
    # with a message saying that remedy does not apply
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'c = ["mod.total"]\n'))
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n\n\ndef total(xs, start):\n'
        "    return sum(set(xs), start)\n")
    report = _analyze(tmp_path)
    assert [v.code for v in report.violations] == ["RA702"]
    assert "start argument" in report.violations[0].message


def test_int_literal_set_sum_is_not_flagged(tmp_path):
    # integer summation is exact and order-free; the always-float
    # math.fsum remedy would change the result type for nothing
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'c = ["mod.total"]\n'))
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n\n\ndef total():\n    return sum({3, 1, 2})\n')
    report = _analyze(tmp_path)
    assert report.violations == []


def test_foreign_pyproject_root_draws_a_scope_warning(tmp_path):
    # two roots with different tables analyzed in one run: the first
    # root's contracts apply, the second is flagged instead of being
    # silently checked against the wrong table
    first = tmp_path / "first"
    second = tmp_path / "second"
    for root, contract in ((first, "a"), (second, "b")):
        root.mkdir()
        _write_pyproject(root, (
            "[tool.repro.determinism]\n"
            f'{contract} = ["mod.run"]\n'))
        (root / "mod.py").write_text(
            '"""Doc."""\n\n\ndef run(xs):\n    return sorted(xs)\n')
    report = analyze_project([first, second], select=PROJECT_RULES,
                             root=tmp_path)
    warnings = [v for v in report.violations if v.code == "RA700"]
    assert len(warnings) == 1
    assert warnings[0].path.endswith("second/mod.py")
    assert str(first / "pyproject.toml") in warnings[0].message
    assert str(second / "pyproject.toml") in warnings[0].message

    # a single-root run stays silent
    alone = analyze_project([first], select=PROJECT_RULES, root=tmp_path)
    assert alone.violations == []

    # the same warning, from the same code, guards the durability
    # table: give only the first root one and the second is flagged
    # RA800 as governed by no table at all
    with open(first / "pyproject.toml", "a") as handle:
        handle.write('[tool.repro.durability]\nartifacts = ["*.npz"]\n')
    both = analyze_project([first, second], select=PROJECT_RULES,
                           root=tmp_path)
    assert [(v.code, v.path.endswith("second/mod.py"))
            for v in both.violations] == [("RA700", True), ("RA800", True)]
    ra800 = both.violations[1].message
    assert "<no durability table>" in ra800
    assert "artifact patterns" in ra800
    assert str(first / "pyproject.toml") in ra800


def test_explicit_config_overrides_the_walk_up(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n\n\ndef run(xs):\n    return sum(set(xs))\n')
    config = dataflow.DeterminismConfig(
        contracts={"c": ("mod.run",)}, source="<test>")
    report = _analyze(tmp_path, determinism=config)
    assert [v.code for v in report.violations] == ["RA702"]
