"""CLI tests for ``repro lint``: exit codes, formats, rule listing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import PROJECT_RULES, RULES

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_main(argv):
    return main(["lint", *argv])


def test_exit_zero_on_clean_tree(capsys):
    assert lint_main([str(FIXTURES / "clean.py")]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


@pytest.mark.parametrize("fixture", [
    "ra001_global_random.py", "ra002_numpy_global.py",
    "ra003_unseeded_rng.py", "hot/core/ra201_wall_clock.py",
    "ra301_mutable_default.py",
])
def test_exit_nonzero_on_each_rule_fixture(fixture, capsys):
    """Acceptance: `repro lint` exits non-zero on every rule's fixture."""
    assert lint_main([str(FIXTURES / fixture)]) == 1
    assert "RA" in capsys.readouterr().out


def test_json_format_is_machine_readable(capsys):
    code = lint_main([str(FIXTURES / "ra301_mutable_default.py"),
                      "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["counts_by_code"].keys() == {"RA301"}


def test_output_file_written(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    lint_main([str(FIXTURES / "ra001_global_random.py"),
               "--format", "json", "-o", str(out_file)])
    capsys.readouterr()
    assert json.loads(out_file.read_text())["clean"] is False


def test_select_filters_rules(capsys):
    # fixture only contains RA001 violations; selecting RA201 finds none
    assert lint_main([str(FIXTURES / "ra001_global_random.py"),
                      "--select", "RA201"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("code", ["RA999", "RA501"])
@pytest.mark.parametrize("project", [[], ["--project"]])
def test_unknown_select_code_is_a_usage_error(code, project, capsys):
    # exit 1 means "a rule fired"; a code the registry does not know
    # (never existed, or deleted) is the caller's mistake, not a finding
    assert lint_main([str(FIXTURES), "--select", code, *project]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown rule code(s): {code}" in captured.err


def test_missing_path_is_a_usage_error(capsys):
    assert lint_main(["definitely/not/a/path.py"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no such path: definitely/not/a/path.py" in captured.err


@pytest.mark.parametrize("flags", [["--fix"], ["--check"],
                                   ["--hot-path", "core"]],
                         ids=["fix", "check", "hot-path"])
def test_removed_flags_are_rejected(flags, capsys):
    # the rewriter and the hot-package knob are gone; an old script
    # passing them gets argparse's usage error, never a silent no-op
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(FIXTURES / "clean.py"), "--project", *flags])
    assert excinfo.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    listed = {line[:5] for line in capsys.readouterr().out.splitlines()
              if line.startswith("RA")}
    assert listed == set(RULES)


def test_list_rules_marks_project_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    marked = {line[:5] for line in out.splitlines()
              if line.startswith("RA") and line[5] == "*"}
    assert marked == PROJECT_RULES
    assert "--project" in out


def test_project_mode_fires_semantic_rules(capsys):
    scenario = FIXTURES / "project" / "locks"
    code = lint_main([str(scenario), "--project", "--format", "json",
                      "--select", "RA502"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts_by_code"].keys() == {"RA502"}
    assert "cache" not in payload


def test_selecting_project_rules_without_project_is_a_usage_error(capsys):
    # regression: this used to print "clean" and exit 0 on a fixture
    # with four RA804 findings, because per-file mode never runs them
    scenario = FIXTURES / "project" / "durability"
    assert lint_main([str(scenario), "--select", "RA804,RA301,RA502"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RA502,RA804" in captured.err and "RA301" not in captured.err
    assert "--project" in captured.err
    assert lint_main([str(scenario), "--select", "RA804",
                      "--project"]) == 1
    assert "RA804×4" in capsys.readouterr().out


def test_sarif_output_is_valid_for_code_scanning(capsys):
    code = lint_main([str(FIXTURES / "ra301_mutable_default.py"),
                      "--format", "sarif"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert {r["id"] for r in driver["rules"]} == {"RA301"}
    location = run["results"][0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    assert location["region"]["startLine"] > 0


def test_repro_lint_subcommand_end_to_end():
    """`python -m repro lint src` — the exact CI invocation — is clean."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src", "--format", "json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["clean"] is True
    assert payload["files_scanned"] > 50


def test_repro_lint_project_subcommand_end_to_end():
    """`python -m repro lint --project src` — the acceptance gate —
    exits 0 on the repo's own tree, semantic rules included."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--project", "src",
         "--format", "json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["clean"] is True
