#!/usr/bin/env python
"""Quickstart: build a synthetic world, train TIPSY, predict an ingress.

This walks the full pipeline end to end on a small world:

1. generate the synthetic Internet + cloud WAN + traffic,
2. stream a training window of sampled IPFIX telemetry,
3. train the paper's model suite (historical models + ensembles + AL+G),
4. predict where a flow will ingress — normally, and after its top link
   is withdrawn,
5. score everything with the paper's byte-weighted top-3 metric.

Run:  python examples/quickstart.py
"""

from repro.experiments import EvaluationRunner, Scenario, ScenarioParams, WindowSpec


def main() -> None:
    print("building a small synthetic world ...")
    scenario = Scenario(ScenarioParams.small(seed=7, horizon_days=14))
    print(f"  {scenario.wan.summary()}")
    print(f"  {len(scenario.graph)} ASes, {len(scenario.traffic)} flow "
          f"aggregates, {len(scenario.outage_schedule)} scheduled outages")

    runner = EvaluationRunner(scenario)

    # -- train the model suite on 10 days of telemetry -----------------------
    print("\ntraining on days 0-9 ...")
    train_counts = runner.feed_window(0, 10 * 24).counts
    models = runner.build_models(train_counts)
    by_name = {m.name: m for m in models}
    print(f"  {len(train_counts)} (flow, link) observations; model sizes: "
          + ", ".join(f"{m.name}={getattr(m, 'size', lambda: 0)()}"
                      for m in models[:3]))

    # -- make a prediction for one real flow ---------------------------------
    context, _link, _bytes = next(train_counts.rows())
    model = by_name["Hist_AP/AL/A"]
    print(f"\nflow {context}:")
    predictions = model.predict(context, k=3)
    print("  predicted ingress links (normal operation):")
    for p in predictions:
        link = scenario.wan.link(p.link_id)
        print(f"    {link.name:<28s} ({link.metro}, "
              f"{link.capacity_gbps:g}G)  p={p.score:.2f}")

    # -- the what-if question CMS asks: what if the top link is withdrawn? ---
    if predictions:
        withdrawn = frozenset({predictions[0].link_id})
        shifted = by_name["Hist_AL+G"].predict(context, k=3,
                                               unavailable=withdrawn)
        print(f"  if link {predictions[0].link_id} is withdrawn, "
              "traffic shifts to:")
        for p in shifted:
            link = scenario.wan.link(p.link_id)
            print(f"    {link.name:<28s} ({link.metro})  score={p.score:.2f}")

    # -- full evaluation (Table 4 style) --------------------------------------
    print("\nevaluating on days 10-13 (byte-weighted top-k accuracy) ...")
    result = runner.run(WindowSpec(train_start_day=0, train_days=10,
                                   test_days=4))
    for name in ("Oracle_AP", "Hist_AP", "Hist_AL", "Hist_AL+G",
                 "Hist_AP/AL/A"):
        row = result.overall.rows[name]
        print(f"  {name:<14s} top1={row[1]*100:5.1f}%  "
              f"top2={row[2]*100:5.1f}%  top3={row[3]*100:5.1f}%")
    print(f"\n  traffic affected by outages: "
          f"{result.stats['outage_bytes'] / result.stats['total_bytes']:.2%} "
          f"of bytes ({result.stats['unseen_fraction']:.0%} from outages "
          "never seen in training)")


if __name__ == "__main__":
    main()
