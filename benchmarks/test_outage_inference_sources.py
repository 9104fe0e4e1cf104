"""§5.1.1 design rationale: IPFIX vs SNMP as the outage ground truth.

"While using IPFIX data to find outages may not seem intuitive, it is
the ground truth about the operating state of the network.  We found
that other sources, such as SNMP, were far less reliable."  This
benchmark runs both inference paths over the same test week and scores
them against the scheduled outages.
"""

from repro.pipeline import OutageInference
from repro.telemetry import (
    SnmpPoller,
    compare_inference,
    infer_outages_from_snmp,
)

from repro.experiments.benchlib import PAPER_WINDOW, print_block


def test_ipfix_vs_snmp_outage_inference(paper_scenario, paper_runner,
                                        benchmark):
    test_lo, test_hi = PAPER_WINDOW.test_hours
    scenario = paper_scenario
    truth = [o for o in scenario.outage_schedule
             if o.start_hour < test_hi and o.end_hour > test_lo]

    # IPFIX path: the paper's rule over the feed's sampled link bytes
    link_bytes = paper_runner.feed_window(test_lo, test_hi).link_bytes
    ipfix_inference = OutageInference(scenario.wan.link_ids, link_bytes)
    ipfix_intervals = [
        type(o)(o.link_id, o.start_hour + test_lo, o.end_hour + test_lo)
        for o in ipfix_inference.intervals()
    ]
    # restrict scoring to links that actually carry traffic: a link with
    # no flows is invisible to the data plane by construction
    carrying = {
        scenario.wan.link_ids[i]
        for i in range(len(scenario.wan.link_ids))
        if link_bytes[i].sum() > 0
    }
    truth_carrying = [o for o in truth if o.link_id in carrying]

    ipfix_quality = compare_inference(
        truth_carrying,
        [o for o in ipfix_intervals if o.link_id in carrying],
        test_lo, test_hi)

    # SNMP path: realistic poller unreliability
    def snmp_run():
        poller = SnmpPoller(sorted(carrying), truth_carrying, seed=3)
        readings = poller.poll_window(test_lo, test_hi)
        return infer_outages_from_snmp(readings)

    snmp_intervals = benchmark.pedantic(snmp_run, rounds=1, iterations=1)
    snmp_quality = compare_inference(truth_carrying, snmp_intervals,
                                     test_lo, test_hi)

    print_block(
        "== §5.1.1 — outage inference source comparison ==\n"
        f"IPFIX:  recall {ipfix_quality.recall:.3f}  "
        f"precision {ipfix_quality.precision:.3f}\n"
        f"SNMP:   recall {snmp_quality.recall:.3f}  "
        f"precision {snmp_quality.precision:.3f}\n"
        "(IPFIX false positives are sampling dropouts on thin links; "
        "SNMP misses come from stale agents and missed polls)")

    # the paper's claim: data-plane inference catches what SNMP misses
    assert ipfix_quality.recall >= snmp_quality.recall
    assert ipfix_quality.recall > 0.95
