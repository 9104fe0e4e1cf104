"""Every workload at ``--quick`` size: the contract with BENCHMARK.json."""

import json
import re

import pytest

import run
from repro.pipeline.records import AggColumns
from tipsybench import OUT_DIR, REPO_ROOT

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SECONDS = "1.3"


def _run(capsys, *args):
    status = run.main(["--quick", "--seconds", SECONDS, *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1]), lines


def test_the_spec_names_the_workloads_the_harness_has():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    status, result, lines = _run(capsys, "--workload", workload,
                                 "--seed", "3")
    assert status == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == (
        expected)
    # an end-to-end metric is never 0: a bound is a share of it
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "QUICK" in lines[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    status, result, lines = _run(capsys, "--workload", workload,
                                 "--seed", "3", "--trace", "1")
    assert status == 0, "\n".join(lines)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == (
        expected)
    trace = json.loads((OUT_DIR / f"trace-{workload}.json").read_text())
    assert trace["workload"] == workload and trace["quick"] is True
    assert any(root["name"].startswith("bench.") for root in trace["spans"])
    busy = {"replay": "pipeline.to_records_s",
            "query_steady": "serve.predict_batch_s",
            "serve_live": "serve.ingest_hour_s",
            "withdrawal_churn": "bgp.resolve_s"}[workload]
    idle = {"replay": "serve.predict_batch_s",
            "query_steady": "pipeline.aggregate_s",
            "serve_live": "cms.handle_sample_s",
            "withdrawal_churn": "pipeline.to_records_s"}[workload]
    assert result["metrics"][busy]["value"] > 0
    assert result["metrics"][idle]["value"] == 0


def test_an_injected_wrong_answer_is_a_failed_operation(capsys, monkeypatch):
    honest = AggColumns.to_records

    def drops_a_record(self):
        return honest(self)[:-1]

    monkeypatch.setattr(AggColumns, "to_records", drops_a_record)
    status, result, lines = _run(capsys, "--workload", "replay",
                                 "--seed", "3")
    assert status == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any("aggregate_hour != aggregate_hour_columns" in line
               for line in lines)
