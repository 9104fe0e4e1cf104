"""Tests for table row formatting."""

from repro.cms import RiskFinding
from repro.experiments import EvaluationRunner, WindowSpec, tables


class TestAccuracyRows:
    def test_paper_order_and_values(self, small_result):
        rows = tables.table4_overall(small_result)
        names = [r.model for r in rows]
        assert names == [n for n in tables.PAPER_MODEL_ORDER
                         if n in small_result.overall.rows]
        for row in rows:
            assert 0.0 <= row.top1 <= row.top2 <= row.top3 <= 1.0

    def test_all_table_builders_work(self, small_result):
        for builder in (tables.table4_overall, tables.table5_outages_all,
                        tables.table6_outages_seen,
                        tables.table7_outages_unseen,
                        tables.table9_nb_overall,
                        tables.table10_nb_outages):
            rows = builder(small_result)
            assert isinstance(rows, list)

    def test_formatted_row_alignment(self, small_result):
        rows = tables.table4_overall(small_result)
        line = rows[0].formatted()
        assert rows[0].model in line
        assert "%" not in line  # numbers only; header carries units

    def test_format_block(self, small_result):
        rows = tables.table4_overall(small_result)
        block = tables.format_block("Table 4", rows,
                                    tables.ACCURACY_HEADER)
        assert block.startswith("== Table 4 ==")
        assert len(block.splitlines()) == 2 + len(rows)


class TestAccuracyPins:
    """The offline runner's accuracy on the small world, to the bit.

    ``small_result`` is seed 7, 10 training days, 4 test days, default
    model suite.  The values are what the tree produced before the
    serving path stopped sharing ``HistoricalModel``'s exact mode (PR
    18); batch-mode training must not move with the serving path.
    """

    PINS = {
        ("overall", "Hist_AP/AL/A"): (0.7878574509719852, 0.969238475611348),
        ("overall", "Hist_AL+G"): (0.6925320616574493, 0.9459689262101661),
        ("outages_all", "Hist_AP/AL/A"): (0.6039661320850774,
                                          0.8550740498510188),
        ("outages_all", "Hist_AL+G"): (0.5214763107638134,
                                       0.7590170056965548),
    }

    #: the same window with Appendix A's models: Naive Bayes trains by
    #: walking the counts table's rows, the rest from its projections
    NB_PINS = {
        ("overall", "NB_AL"): (0.6625365158383527, 0.9265279467077412),
        ("overall", "Hist_AL/NB_AL"): (0.6962997817220428,
                                       0.9507740725919391),
        ("overall", "Oracle_AL"): (0.7319468014092069, 0.963039839360003),
        ("outages_all", "NB_AL"): (0.4671844982347409, 0.6750684458746632),
        ("outages_all", "Oracle_AL"): (0.7633178853407865,
                                       0.9594777882272856),
    }

    @staticmethod
    def _measure(result, pins):
        return {(block, model): (getattr(result, block).get(model, 1),
                                 getattr(result, block).get(model, 3))
                for block, model in pins}

    def test_small_world_top1_top3_are_pinned(self, small_result):
        assert self._measure(small_result, self.PINS) == self.PINS

    def test_naive_bayes_run_is_pinned(self, small_scenario):
        result = EvaluationRunner(small_scenario).run(
            WindowSpec(0, 10, 4), include_naive_bayes=True)
        assert self._measure(result, self.NB_PINS) == self.NB_PINS
        assert result.stats["train_tuples"] == 3573.0


class TestRiskRows:
    def test_risk_row_rendering(self, small_scenario):
        wan = small_scenario.wan
        link = wan.links[0]
        affecting = wan.links[1]
        finding = RiskFinding(
            link_id=link.link_id, peer_asn=link.peer_asn,
            capacity_gbps=link.capacity_gbps, typical_high_hours=1,
            predicted_extra_high_hours=7,
            affecting_group=affecting.link_id)
        rows = tables.risk_rows([finding], wan)
        assert len(rows) == 1
        line = rows[0].formatted()
        assert link.router in line
        assert f"AS{link.peer_asn}" in line

    def test_limit(self, small_scenario):
        wan = small_scenario.wan
        link = wan.links[0]
        finding = RiskFinding(link.link_id, link.peer_asn,
                              link.capacity_gbps, 0, 1, link.link_id)
        assert len(tables.risk_rows([finding] * 5, wan, limit=2)) == 2
