#!/usr/bin/env python
"""Capacity planning: find peering links at risk under single outages.

Appendix C of the paper uses TIPSY for "what-if" capacity analysis: if
peering link A fails, which other link B would exceed 70% utilization in
hours where it otherwise would not?  Surprising answers (different peers,
distant routers) are exactly the ones operators need weeks of lead time
to fix.

This example trains a TIPSY model on one week of a synthetic world, runs
the paper's Algorithm 1 over the next three days, and prints the
Table 12-style findings.

Run:  python examples/capacity_planning.py
"""

from repro.cms import RiskAnalyzer
from repro.experiments import EvaluationRunner, Scenario, ScenarioParams
from repro.experiments.tables import RISK_HEADER, risk_rows


def main() -> None:
    print("building a small synthetic world ...")
    scenario = Scenario(ScenarioParams.small(seed=11, horizon_days=14))
    runner = EvaluationRunner(scenario)

    print("training Hist_AL on days 0-6 ...")
    train_counts = runner.feed_window(0, 7 * 24).counts
    models = {m.name: m for m in runner.build_models(train_counts)}
    model = models["Hist_AL"]

    print("running Algorithm 1 over days 7-9 "
          "(what-if outage of every link, every hour) ...")
    analyzer = RiskAnalyzer(scenario.wan, model, threshold=0.70)

    samples = (scenario.traffic_entries_for(cols)
               for cols in scenario.stream(7 * 24, 10 * 24))
    findings = analyzer.analyze(samples, min_extra_hours=2)
    print(f"\n{len(findings)} at-risk (link, affecting-link) pairs found; "
          "top findings:\n")
    print(RISK_HEADER)
    for row in risk_rows(findings, scenario.wan, limit=10):
        print(row.formatted())

    surprising = [
        f for f in findings
        if f.peer_asn != scenario.wan.link(f.affecting_group).peer_asn
    ]
    print(f"\n{len(surprising)} findings are 'operationally surprising' — "
          "the affecting link belongs to a different peer, so the "
          "dependency is invisible without TIPSY's what-if analysis.")


if __name__ == "__main__":
    main()
