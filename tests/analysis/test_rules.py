"""Fixture-driven tests: each known-bad snippet fires exactly the rules
its ``# expect: <code>`` markers declare, at the marked lines."""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import HOT_PACKAGES, RULES, analyze_source

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<codes>[A-Z0-9,\s]+)")


def expected_violations(path):
    """Parse ``# expect: RA001[, RA002...]`` markers into (line, code)."""
    out = []
    for lineno, text in enumerate(
            path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(text)
        if not match:
            continue
        for code in match.group("codes").split(","):
            code = code.strip()
            if code:
                out.append((lineno, code))
    return out


def fixture_files():
    # fixtures/project/ exercises the whole-program rules (RA5xx-RA8xx),
    # which never fire in single-file analysis — test_project.py runs an
    # exact-match pass over them with analyze_project instead
    return sorted(p for p in FIXTURES.rglob("*.py")
                  if "project" not in p.relative_to(FIXTURES).parts)


def test_fixture_tree_is_nonempty():
    names = {p.name for p in fixture_files()}
    # one known-bad fixture per rule family, plus clean + suppressed
    assert {"ra001_global_random.py", "ra002_numpy_global.py",
            "ra003_unseeded_rng.py", "ra201_wall_clock.py",
            "ra301_mutable_default.py", "ra401_missing_docstring.py",
            "clean.py", "suppressed.py"} <= names


@pytest.mark.parametrize(
    "path", fixture_files(), ids=lambda p: str(p.relative_to(FIXTURES)))
def test_fixture_fires_exactly_the_marked_rules(path):
    violations = analyze_source(path.read_text(), path)
    got = Counter((v.line, v.code) for v in violations)
    want = Counter(expected_violations(path))
    assert got == want, (
        f"{path.name}: expected {sorted(want.elements())}, "
        f"got {sorted(got.elements())}")


#: codes with no marker fixture: a parse failure and the two config
#: checks have their own tests (test_engine.py, test_dataflow.py)
_UNMARKED_CODES = frozenset({"RA000", "RA700", "RA800"})


def test_every_rule_code_is_covered_by_a_fixture():
    """The registry and the fixtures agree: every rule's known-bad case
    is still caught, and no fixture expects a code that no longer
    exists."""
    marked = {}  # code -> a fixture expecting it
    for path in sorted(FIXTURES.rglob("*.py")):
        for _, code in expected_violations(path):
            marked.setdefault(code, path.relative_to(FIXTURES))
    unknown = {code: str(path) for code, path in marked.items()
               if code not in RULES}
    assert unknown == {}, "fixtures expect codes missing from RULES"
    assert set(RULES) - _UNMARKED_CODES - set(marked) == set()


def test_private_modules_exempt_from_docstring_rule():
    path = FIXTURES / "_private_no_docstring.py"
    assert analyze_source(path.read_text(), path) == []


def test_violation_messages_name_the_remedy():
    path = FIXTURES / "ra003_unseeded_rng.py"
    violations = analyze_source(path.read_text(), path)
    assert violations, "expected RA003 violations"
    assert all("mix64" in v.message for v in violations)
    # RA201 sends timing code where timing lives today: obs spans and
    # the benchmark — not perf/, which no longer holds any
    path = FIXTURES / "hot" / "core" / "ra201_wall_clock.py"
    clock = [v for v in analyze_source(path.read_text(), path)
             if v.code == "RA201"]
    assert clock, "expected RA201 violations"
    for violation in clock:
        assert "repro.obs" in violation.message
        assert "benchmarks/e2e" in violation.message
        assert "perf/" not in violation.message


def test_hot_path_rule_silent_outside_hot_packages(tmp_path):
    src = (FIXTURES / "hot" / "core" / "ra201_wall_clock.py").read_text()
    cold = tmp_path / "cli" / "timing.py"
    cold.parent.mkdir(parents=True)
    cold.write_text(src)
    assert analyze_source(src, cold) == []


@pytest.mark.parametrize("package", ["pipeline", "core", "traffic"])
def test_hot_path_rule_fires_in_every_hot_package(package, tmp_path):
    assert package in HOT_PACKAGES
    src = (FIXTURES / "hot" / "core" / "ra201_wall_clock.py").read_text()
    hot = tmp_path / package / "timing.py"
    hot.parent.mkdir(parents=True)
    hot.write_text(src)
    assert [v.code for v in analyze_source(src, hot)] == ["RA201"] * 3
