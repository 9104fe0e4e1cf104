"""Coverage for smaller experiment-layer surfaces."""


from repro.experiments import (
    EvaluationRunner,
    Scenario,
    ScenarioParams,
    tables,
)
from repro.experiments.incident import build_incident_world


class TestScenarioPresets:
    def test_medium_preset_builds(self):
        scenario = Scenario(ScenarioParams.medium(seed=3, horizon_days=7))
        summary = scenario.wan.summary()
        assert summary["links"] > 150
        assert len(scenario.traffic) > 2000
        # streams without error
        cols = next(iter(scenario.stream(0, 1)))
        assert len(cols.flow_rows) > 0

    def test_presets_differ_in_scale(self):
        small = ScenarioParams.small(seed=1)
        medium = ScenarioParams.medium(seed=1)
        assert medium.traffic.n_flows > small.traffic.n_flows
        assert medium.topology.n_stub > small.topology.n_stub


class TestRunnerOptions:
    def test_no_nb_by_default(self, small_scenario, trained_counts):
        runner = EvaluationRunner(small_scenario)
        names = {m.name for m in runner.build_models(trained_counts)}
        assert not any(n.startswith("NB") for n in names)


class TestTableFormatting:
    def test_cost_row_formatted(self):
        row = tables.CostRow("Hist_AP", 0.5, 1.25, 1000)
        text = row.formatted()
        assert "Hist_AP" in text
        assert "0.500s" in text
        assert "1000" in text

    def test_accuracy_row_formatted_widths(self):
        row = tables.AccuracyRow("Hist_AP", 0.5, 0.75, 0.99999)
        text = row.formatted()
        assert "50.00" in text and "100.00" in text


class TestIncidentTraining:
    def test_incident_service_learns_l1_pair(self):
        world = build_incident_world(seed=0, n_flows=40)
        service = world.service(48)
        links = world.links
        context = world.contexts[0]
        preds = service.predict(context, 2)
        assert {p.link_id for p in preds} <= {links["I1"], links["I2"]}
        # and with both L1 links withdrawn, geography completes to L2
        shifted = service.predict(context, 2,
                                  unavailable={links["I1"], links["I2"]})
        assert {p.link_id for p in shifted} <= {links["I3"], links["I4"]}
