"""Tests for the recall/precision/user/efficiency studies (small scale).

These exercise the study *machinery*; the benchmark suite checks the
paper-shape assertions at full scale.
"""

from __future__ import annotations

import pytest

from repro.eval.efficiency import EfficiencyStudy
from repro.eval.precision import JudgedTerm, PrecisionStudy
from repro.eval.recall import RecallStudy
from repro.eval.user_study import SessionLog, UserStudy, UserStudyResult
from repro.core.interface import FacetedInterface


class TestRecallStudy:
    @pytest.fixture(scope="class")
    def study(self, config, builder):
        return RecallStudy(config, builder=builder)

    def test_concept_key_unifies_variants(self, study):
        assert study.concept_key("Hillary Clinton") == study.concept_key(
            "Hillary Rodham Clinton"
        )

    def test_concept_key_for_unknown_term(self, study):
        assert study.concept_key("mystery phrase") == "mysteri phrase"

    def test_recall_metric(self, study):
        assert study.recall(["France"], ["france"]) == 1.0
        assert study.recall(["France", "Japan"], ["france"]) == 0.5
        assert study.recall([], ["x"]) == 0.0

    def test_single_cell_extraction(self, study, snyt):
        terms = study.extracted_terms(snyt, "Wikipedia", "Wikipedia Graph")
        assert len(terms) > 20

    def test_full_grid_runs_small(self, config, builder, snyt):
        matrix = RecallStudy(config, builder=builder).run(snyt)
        assert len(matrix.values) == 20
        assert all(0 <= v <= 1 for v in matrix.values.values())


class TestPrecisionStudy:
    @pytest.fixture(scope="class")
    def study(self, config, builder):
        return PrecisionStudy(config, builder=builder)

    def test_judges_qualified(self, study):
        assert len(study.judges) == 5

    def test_precision_of(self):
        judged = [
            JudgedTerm("a", None, votes=5, precise=True),
            JudgedTerm("b", None, votes=1, precise=False),
        ]
        assert PrecisionStudy.precision_of(judged) == 0.5
        assert PrecisionStudy.precision_of([]) == 0.0

    def test_judging_is_deterministic(self, study, pipeline_result):
        first = study.judge_hierarchies(pipeline_result.hierarchies[:3], cell="t")
        second = study.judge_hierarchies(pipeline_result.hierarchies[:3], cell="t")
        assert [(j.term, j.votes) for j in first] == [
            (j.term, j.votes) for j in second
        ]

    def test_votes_in_range(self, study, pipeline_result):
        for judged in study.judge_hierarchies(
            pipeline_result.hierarchies[:3], cell="r"
        ):
            assert 0 <= judged.votes <= 5


class TestUserStudy:
    def test_session_log_duration(self):
        log = SessionLog(user=0, repetition=0, searches=2, facet_clicks=3, scanned=10)
        assert log.duration_s == 2 * 18.0 + 3 * 6.0 + 10 * 1.5

    def test_result_aggregation(self):
        result = UserStudyResult(
            sessions=[
                SessionLog(user=0, repetition=0, searches=4),
                SessionLog(user=1, repetition=0, searches=2),
                SessionLog(user=0, repetition=1, searches=1),
                SessionLog(user=1, repetition=1, searches=1),
            ],
            satisfaction=[2.5, 2.5, 2.5, 2.5],
        )
        assert result.searches_per_repetition == [3.0, 1.0]
        assert result.search_reduction == pytest.approx(2 / 3)
        assert result.mean_satisfaction == 2.5

    def test_runs_on_real_interface(self, builder, snyt, config):
        result = builder.build().run(snyt.documents)
        interface = FacetedInterface.from_result(result)
        study = UserStudy(interface, builder.world, config, users=2, repetitions=2)
        out = study.run()
        assert len(out.sessions) == 4
        assert all(s.searches + s.facet_clicks > 0 for s in out.sessions)
        assert all(0 <= s <= 3 for s in out.satisfaction)


class TestEfficiencyStudy:
    def test_report_fields(self, config, builder, snyt):
        study = EfficiencyStudy(config, builder)
        report = study.run(snyt.documents[:30])
        assert report.documents == 30
        assert report.extraction_local_s_per_doc > 0
        assert report.extraction_with_yahoo_s_per_doc > 2.0  # modeled latency
        assert report.expansion_with_google_s_per_doc >= 1.0
        assert "docs/s" in report.format_summary()

    def test_warm_cache_comparison(self, config, builder, snyt):
        study = EfficiencyStudy(config, builder)
        report = study.run_parallel_comparison(
            snyt.documents[:10], workers=2, latency_seconds=0.001
        )
        assert report.cold_round_trips > 0
        assert report.warm_round_trips == 0
        assert report.warm_persistent_hits > 0
        assert report.warm_queries >= report.warm_persistent_hits
        assert "warm cache" in report.format_summary()
