"""Engine-level tests: suppression semantics, selection, reporting, and
the acceptance invariant that the repo's own tree lints clean."""

from pathlib import Path

from repro.analysis import (RULES, analyze_paths, analyze_source,
                            iter_python_files, suppressed_lines)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


# -- noqa suppression --------------------------------------------------------

def test_bare_noqa_suppresses_everything_on_the_line():
    src = ('"""Doc."""\n'
           "import random\nx = random.random()  # repro: noqa\n")
    assert analyze_source(src, Path("mod.py")) == []


def test_coded_noqa_suppresses_only_listed_codes():
    src = ('"""Doc."""\n'
           "import random\n"
           "x = random.Random()  # repro: noqa[RA003]\n")
    # RA003 (unseeded) suppressed; nothing else fires on that line
    assert analyze_source(src, Path("mod.py")) == []
    src_wrong = ('"""Doc."""\n'
                 "import random\n"
                 "x = random.Random()  # repro: noqa[RA001]\n")
    violations = analyze_source(src_wrong, Path("mod.py"))
    assert [v.code for v in violations] == ["RA003"]


def test_suppressed_fixture_is_clean():
    path = FIXTURES / "suppressed.py"
    assert analyze_source(path.read_text(), path) == []


def test_suppressed_lines_parser():
    marks = suppressed_lines(
        "a = 1\n"
        "b = 2  # repro: noqa\n"
        "c = 3  # repro: noqa[RA001, RA301]\n")
    assert marks[2] is None
    assert marks[3] == frozenset({"RA001", "RA301"})
    assert 1 not in marks


# Multi-line statements: a suppression attaches to the *physical line
# the violation is reported at* — the inner call's own line for a
# wrapped call, the default value's line inside a decorated def's
# signature — never to the statement's opening line as a whole.

_WRAPPED_CALL = ('"""Doc."""\n'
                 "import random\n"
                 "def go(floor):\n"
                 "    return max(\n"
                 "        random.random(),{noqa}\n"
                 "        floor,\n"
                 "    )\n")

_DECORATED_DEF = ('"""Doc."""\n'
                  "import functools\n"
                  "\n"
                  "@functools.wraps(print){dec_noqa}\n"
                  "def f(\n"
                  "    x=[]{noqa},\n"
                  "):\n"
                  "    return x\n")


def test_wrapped_call_reports_and_suppresses_on_the_inner_call_line():
    bare = _WRAPPED_CALL.format(noqa="")
    violations = analyze_source(bare, Path("mod.py"))
    assert [(v.line, v.code) for v in violations] == [(5, "RA001")]
    on_reported = _WRAPPED_CALL.format(noqa="  # repro: noqa[RA001]")
    assert analyze_source(on_reported, Path("mod.py")) == []


def test_noqa_on_a_wrapped_calls_opening_line_does_not_leak_down():
    opening = _WRAPPED_CALL.format(noqa="").replace(
        "max(", "max(  # repro: noqa[RA001]")
    violations = analyze_source(opening, Path("mod.py"))
    assert [(v.line, v.code) for v in violations] == [(5, "RA001")]


def test_decorated_def_reports_and_suppresses_on_the_default_line():
    bare = _DECORATED_DEF.format(dec_noqa="", noqa="")
    violations = analyze_source(bare, Path("mod.py"))
    assert [(v.line, v.code) for v in violations] == [(6, "RA301")]
    on_reported = _DECORATED_DEF.format(
        dec_noqa="", noqa="  # repro: noqa[RA301]")
    assert analyze_source(on_reported, Path("mod.py")) == []


def test_noqa_on_a_decorator_line_does_not_cover_the_signature():
    on_decorator = _DECORATED_DEF.format(
        dec_noqa="  # repro: noqa[RA301]", noqa="")
    violations = analyze_source(on_decorator, Path("mod.py"))
    assert [(v.line, v.code) for v in violations] == [(6, "RA301")]


# -- parse failures ----------------------------------------------------------

def test_syntax_error_reports_ra000():
    violations = analyze_source("def broken(:\n", Path("bad.py"))
    assert [v.code for v in violations] == ["RA000"]
    assert "RA000" in RULES


# -- path walking & selection ------------------------------------------------

def test_iter_python_files_is_sorted_and_skips_caches(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("")
    (tmp_path / "b.py").write_text("")
    (tmp_path / "a.py").write_text("")
    found = list(iter_python_files([tmp_path]))
    assert found == [tmp_path / "a.py", tmp_path / "b.py"]


def test_select_restricts_report_to_listed_codes():
    report = analyze_paths([FIXTURES], select=frozenset({"RA301"}))
    assert report.violations
    assert {v.code for v in report.violations} == {"RA301"}


def test_report_json_shape():
    report = analyze_paths([FIXTURES / "ra001_global_random.py"])
    payload = report.to_json()
    assert payload["clean"] is False
    assert payload["files_scanned"] == 1
    assert payload["violation_count"] == len(payload["violations"])
    assert sum(payload["counts_by_code"].values()) == \
        payload["violation_count"]
    first = payload["violations"][0]
    assert {"path", "line", "col", "code", "rule", "message"} <= set(first)


# -- the acceptance invariant ------------------------------------------------

def test_repo_source_tree_lints_clean():
    """`repro lint` must pass on the repo's own src/ — the invariants the
    linter encodes are the ones the code actually satisfies."""
    report = analyze_paths([REPO_ROOT / "src"])
    assert report.files_scanned > 50
    assert report.clean, "\n".join(v.render() for v in report.violations)


def test_examples_and_benchmarks_lint_clean():
    report = analyze_paths([REPO_ROOT / "examples",
                            REPO_ROOT / "benchmarks"])
    assert report.clean, "\n".join(v.render() for v in report.violations)
