"""§2 cascading-congestion incident: blind CMS vs TIPSY-guided CMS.

Paper narrative: I1 (400G, L1) hits 90%; blind withdrawal shifts the
/10's traffic onto I2 (same peer/metro) which overloads; the next
withdrawal overloads I3 and I4 (100G, L2); only the third round
disperses the traffic.  TIPSY's post-incident model identified I2 then
I3/I4 in advance, enabling one simultaneous withdrawal.
"""

from repro.experiments import build_incident_world, replay_incident

from repro.experiments.benchlib import print_block


def test_incident_cascade(benchmark):
    world = build_incident_world(seed=0)
    blind = replay_incident(world, with_tipsy=False)
    guided = benchmark.pedantic(
        replay_incident, args=(world, True), rounds=1, iterations=1)

    names = {link: name for name, link in world.links.items()}
    lines = ["mode      rounds  congested-link-hours  withdrawal order"]
    for report, mode in ((blind, "blind"), (guided, "tipsy")):
        order = [names.get(a.link_id, str(a.link_id))
                 for a in report.actions if a.kind.startswith("withdraw")]
        lines.append(f"{mode:<9s} {report.withdrawal_rounds:>5d}  "
                     f"{report.congested_link_hours:>19d}  {order}")
    print_block("== §2 incident replay ==\n" + "\n".join(lines))

    # blind CMS reproduces the paper's cascade: I1, then I2, then I3+I4
    i1, i2, i3, i4 = (world.links[name] for name in ("I1", "I2", "I3", "I4"))
    withdraws = [a.link_id for a in blind.actions if a.kind == "withdraw"]
    assert withdraws[0] == i1
    assert withdraws[1] == i2
    assert set(withdraws[2:4]) == {i3, i4}
    assert blind.withdrawal_rounds == 3

    # guided CMS collapses it into one coordinated round
    assert guided.withdrawal_rounds == 1
    coordinated = {a.link_id for a in guided.actions
                   if a.kind == "withdraw-coordinated"}
    assert coordinated == {i1, i2, i3, i4}
    assert guided.congested_link_hours < blind.congested_link_hours
