"""compare.py: medians against bounds, and what it refuses."""

import json

import compare
from tipsybench import REPO_ROOT

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _write(path, scale=1.0, **flags):
    with open(path, "w", encoding="utf-8") as handle:
        for seed in range(4):
            record = {
                "workload": "replay", "seed": seed, "trace": False,
                "quick": False, "valid": True, "failed": 0,
                "end_to_end": {
                    m["name"]: (100.0 + seed) * (
                        scale if m["name"] == "ops_per_s" else 1.0)
                    for m in SPEC["end_to_end"]},
            }
            record.update(flags)
            handle.write(json.dumps(record) + "\n")
    return str(path)


def test_runs_of_the_same_code_agree(tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl")
    b = _write(tmp_path / "b.jsonl", scale=1.02)
    assert compare.main([a, b]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + len(SPEC["end_to_end"])
    assert all(row.endswith("same") for row in rows[1:])


def test_a_difference_beyond_the_bound_fails_and_names_its_direction(
        tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl")
    worse = _write(tmp_path / "worse.jsonl", scale=0.6)
    better = _write(tmp_path / "better.jsonl", scale=1.5)
    assert compare.main([a, worse]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert compare.main([a, better]) == 1
    assert "BETTER" in capsys.readouterr().out


def test_quick_and_failed_runs_are_refused(tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl")
    for name, flags in (("quick", {"quick": True}),
                        ("failed", {"failed": 2})):
        b = _write(tmp_path / f"{name}.jsonl", **flags)
        assert compare.main([a, b]) == 2
        assert "refused" in capsys.readouterr().err


def test_a_run_the_generator_fell_behind_on_is_left_out(tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl")
    with open(a, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "workload": "replay", "seed": 9, "trace": False, "quick": False,
            "valid": False, "failed": 0,
            "end_to_end": {m["name"]: 1e9 for m in SPEC["end_to_end"]},
        }) + "\n")
    b = _write(tmp_path / "b.jsonl")
    assert compare.main([a, b]) == 0
    assert "left out" in capsys.readouterr().err
