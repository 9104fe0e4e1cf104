"""Integration test: the CMS closed loop over a live scenario stream."""

import pytest

from repro.bgp import AdvertisementState
from repro.cms import CMSConfig, CongestionMitigationSystem
from repro.experiments import EvaluationRunner, Scenario, ScenarioParams

from tests.cms.entry_oracle import EntryCMS


@pytest.fixture(scope="module")
def scenario():
    return Scenario(ScenarioParams.small(seed=11, horizon_days=10))


@pytest.fixture(scope="module")
def models(scenario):
    """The offline models trained on the first 72 hours."""
    runner = EvaluationRunner(scenario)
    train = runner.feed_window(0, 72).counts
    return {m.name: m for m in runner.build_models(train)}


def run_cms(scenario, predictor, hours=(0, 72),
            cms_class=CongestionMitigationSystem):
    cms = cms_class(
        scenario.wan, CMSConfig(coordinated=predictor is not None),
        predictor=predictor)
    state = AdvertisementState(scenario.wan)
    for cols in scenario.stream(hours[0], hours[1], state=state):
        cms.handle_sample(cols.hour, state, scenario.traffic_entries_for(cols))
    return cms


class TestClosedLoop:
    def test_blind_cms_runs_and_withdraws(self, scenario):
        cms = run_cms(scenario, predictor=None)
        kinds = {a.kind for a in cms.actions}
        # the scaled scenario runs some links hot: CMS must have acted
        assert "withdraw" in kinds

    def test_withdrawals_take_effect_in_stream(self, scenario):
        """CMS mutations of the shared state must steer the very next
        hours of the stream (closed loop, not open loop)."""
        cms = run_cms(scenario, predictor=None)
        withdraws = [a for a in cms.actions if a.kind == "withdraw"]
        assert withdraws
        # after a withdrawal, no subsequent withdrawal repeats the same
        # (prefix, link) while it is still withdrawn
        active = set()
        for action in cms.actions:
            key = (action.dest_prefix_id, action.link_id)
            if action.kind == "withdraw":
                assert key not in active
                active.add(key)
            elif action.kind == "reannounce":
                active.discard(key)

    def test_tipsy_guided_loop(self, scenario, models):
        cms = run_cms(scenario, predictor=models["Hist_AL+G"],
                      hours=(72, 144))
        # guided CMS acts (withdraw / coordinated / explicit skip)
        assert cms.actions
        for action in cms.actions:
            assert action.kind in {"withdraw", "withdraw-coordinated",
                                   "skip-unsafe", "reannounce"}


class TestColumnarSample:
    @pytest.mark.parametrize("guided", [False, True])
    def test_actions_equal_the_entry_walk(self, scenario, models, guided):
        """72 hours of the closed loop, blind and TIPSY-guided: the CMS
        reading columns takes exactly the actions — kinds, links,
        prefixes, predicted spills to the bit — of the one walking the
        sample entry by entry."""
        predictor = models["Hist_AL+G"] if guided else None
        hours = (72, 144) if guided else (0, 72)
        columnar = run_cms(scenario, predictor, hours)
        walked = run_cms(scenario, predictor, hours, cms_class=EntryCMS)
        assert columnar.actions and columnar.actions == walked.actions
        if guided:
            assert any(a.predicted_spill for a in columnar.actions)
