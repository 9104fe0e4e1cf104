#!/usr/bin/env python
"""TIPSY as an online service: daily retraining over a live stream (§4).

The production deployment runs TIPSY as a prediction service retrained
daily on a rolling window.  This example wires :class:`TipsyService`
onto a scenario's telemetry stream and, once warmed up, answers the two
operational queries every day: a routine prediction, and the CMS's
"what-if" safety question for a hypothetical withdrawal.

Run:  python examples/online_service.py
"""

from repro.core import ServiceConfig, TipsyService
from repro.experiments import Scenario, ScenarioParams


def main() -> None:
    print("building a small synthetic world ...")
    scenario = Scenario(ScenarioParams.small(seed=9, horizon_days=14))
    service = TipsyService(scenario.wan,
                           ServiceConfig(training_window_days=7))

    print("streaming 12 days of telemetry into the service ...")
    for columns in scenario.aggregated_hours(0, 12 * 24):
        service.ingest_hour(columns.hour, columns)
        if columns.hour % 24 == 0 and service.ready:
            day = columns.hour // 24
            window = service.trained_days
            print(f"  day {day:>2d}: retrain #{service.retrain_count} on "
                  f"days [{min(window)}..{max(window)}]")

    # -- a routine prediction ---------------------------------------------------
    context = next(iter(scenario.flow_contexts))
    predictions = service.predict(context)
    print(f"\nflow {context}:")
    for p in predictions:
        link = scenario.wan.link(p.link_id)
        print(f"  {link.name:<28s} p={p.score:.2f}")

    # -- the CMS's what-if question ----------------------------------------------
    if predictions:
        target = predictions[0].link_id
        cols = next(iter(scenario.stream(12 * 24, 12 * 24 + 1)))
        flows = [(scenario.flow_contexts[row], float(b))
                 for row, link, b in zip(cols.flow_rows, cols.link_ids,
                                         cols.sampled_bytes)
                 if int(link) == target and b > 0]
        spill = service.what_if(flows, withdrawn=frozenset({target}))
        total = sum(b for _c, b in flows)
        print(f"\nwhat-if: withdrawing link {target} "
              f"({scenario.wan.link(target).name}) moves "
              f"{total:.3g}B; predicted landing spots:")
        for link_id, bytes_ in sorted(spill.items(),
                                      key=lambda kv: -kv[1])[:5]:
            if link_id < 0:
                print(f"  UNPLACEABLE: {bytes_:.3g}B (no alternative known)")
            else:
                print(f"  {scenario.wan.link(link_id).name:<28s} "
                      f"{bytes_:.3g}B")


if __name__ == "__main__":
    main()
