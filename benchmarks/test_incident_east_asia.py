"""§6's East Asia incident (06 September 2021), replayed end to end.

Paper account: a hot East Asia link; CMS withdrew two /24 prefixes;
TIPSY identified three shift targets across two transit providers — two
in the same metro, one in a different country — all with capacity;
traffic shifted as predicted; prefixes re-announced 2 hours later.
"""

from repro.experiments import build_east_asia_world, replay_east_asia

from repro.experiments.benchlib import print_block


def test_incident_east_asia(benchmark):
    world = build_east_asia_world(seed=0)
    report = benchmark.pedantic(replay_east_asia, args=(world,),
                                rounds=1, iterations=1)

    names = {link: name for name, link in world.links.items()}
    shift = [names.get(l, str(l)) for l in report.actual_shift_links]
    print_block(
        "== §6 East Asia incident ==\n"
        f"withdrawn /24s: {len(report.withdrawn_prefixes)} "
        f"(paper: 2)\n"
        f"traffic shifted to: {shift} "
        "(paper: 3 links, 2 transits, 2 same-metro + 1 other country)\n"
        f"peak alternate utilization: {report.max_alt_utilization:.0%} "
        "(paper: all had sufficient capacity)\n"
        f"re-announced after: {report.hours_until_reannounce} h "
        "(paper: 2 h)")

    assert len(report.withdrawn_prefixes) == 2
    assert set(report.actual_shift_links) == {
        world.links[name] for name in ("hkg,P", "hkg,Q", "tpe,P")}
    assert set(report.actual_shift_links) <= set(report.predicted_links)
    assert report.max_alt_utilization < 0.85
    assert report.hours_until_reannounce == 2
