#!/usr/bin/env python
"""De-peering study: which peers could be removed safely? (paper §8)

"In the course of maintaining a large WAN, it is natural to consider
de-peering to reduce cost and operational overhead with peers that add
low value."  For every peer, the analyzer asks TIPSY what would happen
to the peer's traffic if all its links were withdrawn: does it land
safely elsewhere, or does it strand or overload?

Run:  python examples/depeering_study.py
"""

from repro.cms import DepeeringAnalyzer
from repro.experiments import EvaluationRunner, Scenario, ScenarioParams


def main() -> None:
    print("building a small synthetic world ...")
    scenario = Scenario(ScenarioParams.small(seed=5, horizon_days=14))
    runner = EvaluationRunner(scenario)

    print("training Hist_AL+G on days 0-9 ...")
    counts = runner.feed_window(0, 10 * 24).counts
    models = {m.name: m for m in runner.build_models(counts)}
    analyzer = DepeeringAnalyzer(scenario.wan, models["Hist_AL+G"])

    # use a peak-hour snapshot, as the CMS does (paper §4)
    cols = next(iter(scenario.stream(10 * 24 + 14, 10 * 24 + 15)))
    sample = scenario.traffic_entries_for(cols)

    candidates = analyzer.rank_candidates(sample,
                                          max_carried_fraction=0.01)
    print(f"\n{len(candidates)} of {len(scenario.wan.peer_asns)} peers are "
          "low-value AND safely removable:\n")
    print(f"{'Peer':<9s} {'links':>5s} {'traffic share':>14s} "
          f"{'spill destinations':<30s}")
    for assessment in candidates[:10]:
        spill = ", ".join(
            scenario.wan.link(l).name
            for l, _b in assessment.predicted_spill[:2]) or "-"
        print(f"AS{assessment.peer_asn:<7d} {assessment.n_links:>5d} "
              f"{assessment.carried_fraction:>13.3%}  {spill}")

    # contrast: a big peer is NOT removable
    biggest = max(scenario.wan.peer_asns,
                  key=lambda a: len(scenario.wan.links_of_peer(a)))
    assessment = analyzer.assess(biggest, sample)
    print(f"\ncontrast — AS{biggest} ({assessment.n_links} links, "
          f"{assessment.carried_fraction:.1%} of traffic): "
          f"{'safe' if assessment.safe else 'NOT safe'} to remove"
          + (f"; would overload links {list(assessment.overloaded_links)}"
             if assessment.overloaded_links else "")
          + (f"; {assessment.unplaceable_bytes:.3g}B would strand"
             if assessment.unplaceable_bytes else ""))


if __name__ == "__main__":
    main()
