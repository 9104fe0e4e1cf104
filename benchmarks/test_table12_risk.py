"""Tables 12 and 15 (Appendices C and D): peering links at risk.

Algorithm 1 over the test week with the Hist_AL model, exactly as the
paper runs it: for every hour and every link, predict where the link's
flows would land under an outage; report links pushed over 70% in hours
where they otherwise would not be, sorted by extra over-threshold hours.
The paper highlights "operationally surprising" rows involving different
peers or distant routers.
"""

from repro.cms import RiskAnalyzer
from repro.experiments import tables

from repro.experiments.benchlib import PAPER_WINDOW, print_block


def _analyze(paper_scenario, paper_runner):
    train_lo, train_hi = PAPER_WINDOW.train_hours
    test_lo, test_hi = PAPER_WINDOW.test_hours
    counts = paper_runner.feed_window(train_lo, train_hi).counts
    models = {m.name: m for m in paper_runner.build_models(counts)}
    analyzer = RiskAnalyzer(paper_scenario.wan, models["Hist_AL"],
                            threshold=0.70)

    samples = (paper_scenario.traffic_entries_for(cols)
               for cols in paper_scenario.stream(test_lo, test_hi))
    return analyzer.analyze(samples, min_extra_hours=2)


def test_table12_links_at_risk(paper_scenario, paper_runner, benchmark):
    findings = benchmark.pedantic(
        _analyze, args=(paper_scenario, paper_runner),
        rounds=1, iterations=1)
    rows = tables.risk_rows(findings, paper_scenario.wan, limit=12)
    print_block(tables.format_block(
        "Table 12/15 — links at risk under single outages", rows,
        tables.RISK_HEADER))

    assert findings, "risk analysis found no at-risk links"
    # sorted by predicted extra hours, like the paper's table
    extras = [f.predicted_extra_high_hours for f in findings]
    assert extras == sorted(extras, reverse=True)
    # at-risk links are normally fine: predicted extra hours dominate
    top = findings[0]
    assert top.predicted_extra_high_hours > top.typical_high_hours
    # at least one operationally-surprising (cross-peer) dependency
    wan = paper_scenario.wan
    surprising = [f for f in findings
                  if f.peer_asn != wan.link(f.affecting_group).peer_asn]
    print_block(f"{len(surprising)} of {len(findings)} findings involve a "
                "different peer (operationally surprising)")
    assert surprising
