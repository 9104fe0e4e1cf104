#!/usr/bin/env python
"""Spoofed-traffic detection: flag flows on exceedingly unlikely links.

The paper's conclusion describes using TIPSY to identify suspicious
ingress — e.g. traffic claiming to be from US national labs arriving on
peering links in countries far away — candidates for DoS scrubbing.

This example trains TIPSY on clean telemetry, then injects spoofed
records (legitimate source prefixes appearing on links far from their
usual geography) and runs :class:`repro.core.IngressAnomalyDetector`
over both.

Run:  python examples/anomalous_ingress.py
"""

import random

from repro.core import IngressAnomalyDetector
from repro.experiments import EvaluationRunner, Scenario, ScenarioParams


def main() -> None:
    print("building a small synthetic world ...")
    scenario = Scenario(ScenarioParams.small(seed=3, horizon_days=14))
    runner = EvaluationRunner(scenario)

    print("training Hist_AL+G on days 0-9 ...")
    train_counts = runner.feed_window(0, 10 * 24).counts
    models = {m.name: m for m in runner.build_models(train_counts)}
    detector = IngressAnomalyDetector(models["Hist_AL+G"], scenario.wan)

    # -- score one hour of clean traffic --------------------------------------
    cols = next(iter(scenario.stream(10 * 24, 10 * 24 + 1)))
    clean = [(scenario.flow_contexts[row], int(link))
             for row, link, b in zip(cols.flow_rows, cols.link_ids,
                                     cols.sampled_bytes) if b > 0]
    false_alarms = detector.scan(clean)
    print(f"\nclean traffic: {len(false_alarms)}/{len(clean)} observations "
          f"flagged ({len(false_alarms) / max(len(clean), 1):.2%} "
          "false-alarm rate)")

    # -- inject spoofed observations -------------------------------------------
    rng = random.Random(1)
    wan, metros = scenario.wan, scenario.metros
    spoofed = []
    contexts = [c for c, _l in clean]
    while len(spoofed) < 200:
        context = rng.choice(contexts)
        link_id = rng.choice(wan.link_ids)
        predictions = models["Hist_AL+G"].predict(context, 3)
        if not predictions:
            continue
        usual = wan.link(predictions[0].link_id)
        if metros.distance_km(usual.metro, wan.link(link_id).metro) > 6000:
            spoofed.append((context, link_id))  # far from usual geography
    caught = detector.scan(spoofed)
    print(f"spoofed traffic: {len(caught)}/{len(spoofed)} far-away "
          f"injections flagged ({len(caught) / len(spoofed):.0%} detection "
          "rate)")
    if caught:
        sample = caught[0]
        print(f"  e.g. {sample.reason} "
              f"(link {wan.link(sample.link_id).name})")
    print("\noperators would route flagged flows through DoS scrubbers "
          "(paper §8).")


if __name__ == "__main__":
    main()
