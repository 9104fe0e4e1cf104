"""The ``--fix`` engine: application, idempotence, behavior preservation.

Two properties anchor everything here:

* **idempotence** — a second ``--fix`` run over an already-fixed tree
  produces zero edits (the fixed form no longer matches its detector);
  checked both on the checked-in fixture and, property-style, over
  randomly composed modules;
* **behavior preservation** — the fixture module computes the same
  values before and after fixing (order-unspecified results compared
  as sets), because every rewrite only *names* what the runtime
  already did on this platform.
"""

import importlib.util
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PROJECT_RULES, analyze_project
from repro.analysis.fixer import (Edit, Fix, _ensure_exactsum_import,
                                  apply_fixes, render_diffs)

FIXTURES = Path(__file__).parent / "fixtures" / "project"


def _copy_fixable(tmp_path):
    target = tmp_path / "fixable"
    shutil.copytree(FIXTURES / "fixable", target)
    return target


def _analyze(tree):
    return analyze_project([tree], select=PROJECT_RULES, root=tree)


def _import_from(path, alias):
    spec = importlib.util.spec_from_file_location(alias, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- application --------------------------------------------------------------


def test_fix_run_makes_the_fixable_tree_clean(tmp_path):
    tree = _copy_fixable(tmp_path)
    report = _analyze(tree)
    assert report.violations and report.fixes
    results = apply_fixes(report.fixes, write=True)
    assert len(results) == 1 and results[0].changed
    fixed = _analyze(tree)
    assert fixed.violations == [] and fixed.fixes == []


def test_second_fix_run_produces_zero_edits(tmp_path):
    tree = _copy_fixable(tmp_path)
    apply_fixes(_analyze(tree).fixes, write=True)
    once = (tree / "mod.py").read_text()
    second = _analyze(tree)
    assert second.fixes == []
    assert apply_fixes(second.fixes, write=True) == []
    assert (tree / "mod.py").read_text() == once


def test_check_mode_writes_nothing(tmp_path):
    tree = _copy_fixable(tmp_path)
    original = (tree / "mod.py").read_text()
    report = _analyze(tree)
    results = apply_fixes(report.fixes, write=False)
    assert results and results[0].changed
    assert (tree / "mod.py").read_text() == original
    diff = render_diffs(results)
    assert diff.startswith("--- a/")
    assert "+++ b/" in diff and "dtype=np.float64" in diff


def test_fixes_rewrite_what_the_rules_flagged(tmp_path):
    tree = _copy_fixable(tmp_path)
    apply_fixes(_analyze(tree).fixes, write=True)
    fixed = (tree / "mod.py").read_text()
    assert "exact_total(distinct)" in fixed
    assert "from repro.util.exactsum import exact_total" in fixed
    assert "sorted({n.lower() for n in names})" in fixed
    assert "np.zeros(n, dtype=np.float64)" in fixed
    assert "dtype=np.int64" in fixed and "np.int_" not in fixed


def test_fixed_module_computes_the_same_values(tmp_path):
    tree = _copy_fixable(tmp_path)
    before = _import_from(tree / "mod.py", "fixable_before")
    values = [0.5, 1.25, 2.0, 0.5]
    names = ["Beta", "alpha", "Gamma"]
    mass = before.total_mass(values)
    name_set = set(before.ordered_names(names))
    grid = before.zero_grid(3)
    index = before.link_index([4, 1, 3])

    apply_fixes(_analyze(tree).fixes, write=True)
    after = _import_from(tree / "mod.py", "fixable_after")
    assert after.total_mass(values) == mass
    # order was unspecified before the fix; compare as sets, and the
    # fixed order must now be the sorted one
    assert set(after.ordered_names(names)) == name_set
    assert after.ordered_names(names) == sorted(name_set)
    assert np.array_equal(after.zero_grid(3), grid)
    assert after.zero_grid(3).dtype == np.float64
    assert np.array_equal(after.link_index([4, 1, 3]), index)
    assert after.link_index([4, 1, 3]).dtype == np.int64


def test_scandir_fix_sorts_by_name_and_still_runs(tmp_path):
    # DirEntry defines no `<`, so the wrap must sort by e.name — a bare
    # sorted(os.scandir(...)) would turn a working walk into TypeError
    tree = tmp_path / "walk"
    tree.mkdir()
    (tree / "pyproject.toml").write_text(
        '[tool.repro.determinism]\nwalk = ["mod.names"]\n')
    (tree / "mod.py").write_text(
        '"""Doc."""\n\nimport os\n\n\ndef names(path):\n'
        "    out = []\n"
        "    for entry in os.scandir(path):\n"
        "        out.append(entry.name)\n"
        "    return out\n")
    report = _analyze(tree)
    assert [f.code for f in report.fixes] == ["RA701"]
    apply_fixes(report.fixes, write=True)
    fixed = (tree / "mod.py").read_text()
    assert ("for entry in sorted(os.scandir(path), "
            "key=lambda e: e.name):") in fixed

    data = tmp_path / "data"
    data.mkdir()
    for name in ("b.txt", "a.txt", "c.txt"):
        (data / name).write_text("x")
    module = _import_from(tree / "mod.py", "scandir_fixed")
    assert module.names(data) == ["a.txt", "b.txt", "c.txt"]

    second = _analyze(tree)
    assert second.fixes == [] and second.violations == []


def test_sum_with_start_is_left_alone(tmp_path):
    # no recipe is attached, so --fix must not touch the file at all
    tree = tmp_path / "startarg"
    tree.mkdir()
    (tree / "pyproject.toml").write_text(
        '[tool.repro.determinism]\nc = ["mod.total"]\n')
    original = ('"""Doc."""\n\n\ndef total(xs, start):\n'
                "    return sum(set(xs), start)\n")
    (tree / "mod.py").write_text(original)
    report = _analyze(tree)
    assert [v.code for v in report.violations] == ["RA702"]
    assert report.fixes == []
    assert apply_fixes(report.fixes, write=True) == []
    assert (tree / "mod.py").read_text() == original


# -- the import inserter ------------------------------------------------------


def test_exactsum_import_goes_after_the_import_block():
    text = '"""Doc."""\n\nimport os\nimport sys\n\nx = 1\n'
    fixed = _ensure_exactsum_import(text)
    lines = fixed.splitlines()
    assert lines[4] == "from repro.util.exactsum import exact_total"


def test_exactsum_import_after_docstring_when_no_imports():
    text = '"""Doc."""\n\nx = 1\n'
    fixed = _ensure_exactsum_import(text)
    assert fixed.splitlines()[1] == \
        "from repro.util.exactsum import exact_total"


def test_exactsum_import_prepended_to_bare_module():
    fixed = _ensure_exactsum_import("x = 1\n")
    assert fixed.startswith("from repro.util.exactsum import exact_total")


def test_exactsum_import_is_not_duplicated():
    text = "from repro.util.exactsum import exact_total\nx = 1\n"
    assert _ensure_exactsum_import(text) == text


def test_future_imports_stay_first():
    text = "from __future__ import annotations\n\nx = 1\n"
    fixed = _ensure_exactsum_import(text)
    lines = fixed.splitlines()
    assert lines[0] == "from __future__ import annotations"
    assert "exact_total" in lines[1]


# -- the idempotence property -------------------------------------------------

_PYPROJECT = '[tool.repro.determinism]\nall = ["mod"]\n'

#: site templates composed into random modules; each is either clean or
#: carries exactly one auto-fixable site
_TEMPLATES = (
    "def f{i}(xs):\n    return sum(set(xs))\n",
    "def g{i}(xs):\n"
    "    out = []\n"
    "    for x in {{str(x) for x in xs}}:\n"
    "        out.append(x)\n"
    "    return out\n",
    "def h{i}(n):\n    return np.zeros(n)\n",
    "def k{i}(xs):\n    return np.array(xs, dtype=np.int_)\n",
    "def m{i}(xs):\n    return np.full(len(xs), 7)\n",
    "def s{i}(p):\n"
    "    out = []\n"
    "    for e in os.scandir(p):\n"
    "        out.append(e.name)\n"
    "    return out\n",
    "def c{i}(xs):\n    return sorted(set(xs))\n",  # already clean
)


def _compose(choices):
    parts = ['"""Doc."""\n\nimport os\n\nimport numpy as np\n\n']
    parts.extend(_TEMPLATES[c].format(i=i)
                 for i, c in enumerate(choices))
    return "\n".join(parts)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=len(_TEMPLATES) - 1),
                min_size=1, max_size=6))
def test_fix_is_idempotent_on_composed_modules(choices):
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        (tree / "pyproject.toml").write_text(_PYPROJECT)
        target = tree / "mod.py"
        target.write_text(_compose(choices))

        first = _analyze(tree)
        expected = sum(1 for c in choices if c != len(_TEMPLATES) - 1)
        assert len(first.fixes) == expected
        apply_fixes(first.fixes, write=True)
        fixed_text = target.read_text()

        second = _analyze(tree)
        assert second.fixes == []
        assert second.violations == []
        apply_fixes(second.fixes, write=True)
        assert target.read_text() == fixed_text


def test_overlapping_fixes_first_wins(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("value = compute(data)\n")
    wrap = (Edit(1, 16, 1, 16, "sorted("), Edit(1, 20, 1, 20, ")"))
    first = Fix(path=str(target), display="mod.py", code="RA701",
                line=1, col=17, description="wrap", edits=wrap)
    second = Fix(path=str(target), display="mod.py", code="RA701",
                 line=1, col=17, description="wrap again", edits=wrap)
    results = apply_fixes([first, second], write=True)
    assert len(results) == 1 and len(results[0].applied) == 1
    assert target.read_text() == "value = compute(sorted(data))\n"
