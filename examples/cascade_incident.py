#!/usr/bin/env python
"""Replay the paper's §2 cascading congestion incident, blind vs TIPSY.

On 04 January 2022 a 400G link (I1) with peer AS B hit 90% ingress
utilization.  The pre-TIPSY mitigation withdrew the hot anycast prefix at
I1, overloading the parallel link I2; withdrawing there overloaded the
two 100G links I3/I4 one metro over — three rounds of chasing congestion.
TIPSY's post-incident analysis showed the whole cascade was predictable.

This example rebuilds that world and runs the real CMS twice:

* blind (pre-TIPSY): withdraw and see what happens — the cascade;
* TIPSY-guided: the predicted spill is unsafe, so CMS plans a
  *coordinated* withdrawal at I1+I2+I3+I4 simultaneously.

Run:  python examples/cascade_incident.py
"""

from repro.experiments import build_incident_world, replay_incident


def describe(report, world) -> None:
    mode = "TIPSY-guided" if report.with_tipsy else "blind (pre-TIPSY)"
    print(f"\n=== {mode} ===")
    names = {link: name for name, link in world.links.items()}
    for action in report.actions:
        if not action.kind.startswith("withdraw") and action.kind != "reannounce":
            continue
        label = names.get(action.link_id,
                          world.wan.link(action.link_id).name)
        hour = action.sample_index - world.surge_start_hour
        print(f"  t+{hour:>2d}h  {action.kind:<21s} {label:<6s} "
              f"prefix {world.wan.dest_prefix(action.dest_prefix_id).cidr}")
    print(f"  withdrawal rounds: {report.withdrawal_rounds}")
    print(f"  congested link-hours: {report.congested_link_hours}")
    peaks = {names.get(l, l): f"{u:.0%}"
             for l, u in sorted(report.max_utilization.items())
             if u > 0.8}
    print(f"  peak utilizations >80%: {peaks}")


def main() -> None:
    print("building the §2 incident world (AS B: I1/I2 400G at L1, "
          "I3/I4 100G at L2) ...")
    world = build_incident_world(seed=0)
    print(f"  demand at incident start: "
          f"{world.demand_gbps(world.surge_start_hour):.0f} Gbps toward "
          f"{world.wan.dest_prefix(0).cidr} "
          f"({world.wan.dest_prefix(0).service})")

    blind = replay_incident(world, with_tipsy=False)
    describe(blind, world)

    guided = replay_incident(world, with_tipsy=True)
    describe(guided, world)

    print("\nsummary: TIPSY turned a "
          f"{blind.withdrawal_rounds}-round cascade with "
          f"{blind.congested_link_hours} congested link-hours into "
          f"{guided.withdrawal_rounds} coordinated round with "
          f"{guided.congested_link_hours} congested link-hour(s).")


if __name__ == "__main__":
    main()
