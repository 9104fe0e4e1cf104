#!/usr/bin/env python
"""Bring your own telemetry: train TIPSY from a flow-trace file.

A real operator would not have the synthetic world — they would have
flow export from their own edge.  This example shows the full offline
path: export a week of (here: synthetic) IPFIX to a CSV trace, then
train and query TIPSY from the trace alone, exactly as you would with
your own data.

Run:  python examples/bring_your_own_trace.py
"""

import tempfile
from pathlib import Path

from repro.core import FEATURES_AL, FEATURES_AP, HistoricalModel
from repro.experiments import Scenario, ScenarioParams
from repro.pipeline import counts_from_trace, write_trace
from repro.store import SegmentStore


def main() -> None:
    print("building a small synthetic world (stands in for your network)")
    scenario = Scenario(ScenarioParams.small(seed=17, horizon_days=10))

    workdir = Path(tempfile.mkdtemp(prefix="tipsy-trace-"))
    trace_path = workdir / "week1.csv"

    # --- the part an operator replaces: export YOUR flow records -----------
    print("exporting 7 days of IPFIX to", trace_path)
    def all_records():
        for cols in scenario.stream(0, 7 * 24):
            yield from scenario.ipfix_records_for(cols)
    n = write_trace(trace_path, all_records())
    print(f"  {n} sampled flow records "
          f"({trace_path.stat().st_size / 1e6:.1f} MB)")

    # --- the offline training path ------------------------------------------
    print("training from the trace (no simulator in sight) ...")
    counts = counts_from_trace(trace_path, scenario.metadata)
    hist_ap, hist_al = (HistoricalModel.from_arrays(counts.project(fs), fs)
                        for fs in (FEATURES_AP, FEATURES_AL))
    print(f"  {len(counts)} (flow, link) observations -> "
          f"Hist_AP: {hist_ap.size()} tuples, Hist_AL: {hist_al.size()}")

    # --- query and persist ----------------------------------------------------
    context, _link, _bytes = next(counts.rows())
    predictions = hist_ap.predict(context, 3)
    print(f"\nprediction for {context}:")
    for p in predictions:
        link = scenario.wan.link(p.link_id)
        print(f"  {link.name:<28s} p={p.score:.2f}")

    # the same checksummed segment format the service snapshots into
    store = SegmentStore(workdir / "models", create=True)
    arrays = hist_ap.to_arrays()
    store.write("model-AP", arrays, kind="model_grain",
                rows=len(arrays["value"]))
    loaded = HistoricalModel.from_arrays(store.read("model-AP"), FEATURES_AP)
    assert loaded.predict(context, 3) == predictions
    print(f"\nmodel segment written to {store.root} "
          f"({store.total_bytes() / 1e3:.0f} kB) — load it in your "
          "serving process with HistoricalModel.from_arrays, inspect it "
          "with `repro snapshot inspect`")


if __name__ == "__main__":
    main()
