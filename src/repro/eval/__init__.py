"""Evaluation harness: simulated annotators and the paper's studies.

The paper's evaluation is human-powered (Amazon Mechanical Turk); this
subpackage replaces the human annotators with stochastic agents that
read the ground truth the corpus generator recorded:

* :mod:`repro.eval.annotators` — per-story facet-term annotation with
  per-annotator recall and idiosyncratic noise, five annotators per
  story, >= 2 agreement (Section V-B protocol);
* :mod:`repro.eval.goldset` — dataset-level gold facet-term sets;
* :mod:`repro.eval.recall` / :mod:`repro.eval.precision` — the
  Table II-IV and Table V-VII measurements;
* :mod:`repro.eval.qualification` — the Open-Directory-style
  qualification test precision annotators must pass;
* :mod:`repro.eval.user_study` — the five-user browsing study of
  Section V-E;
* :mod:`repro.eval.efficiency` — the Section V-D throughput study.
"""

from .metrics import match_key, term_set_recall
from .annotators import AnnotatorPool, SimulatedAnnotator
from .goldset import GoldSet, build_gold_set
from .recall import RecallStudy
from .precision import PrecisionStudy
from .qualification import QualificationTest
from .user_study import UserStudy, UserStudyResult
from .efficiency import EfficiencyStudy, ParallelEfficiencyReport
from .agreement import AgreementReport, measure_agreement
from .hierarchy_metrics import HierarchyMetrics, hierarchy_metrics

__all__ = [
    "match_key",
    "term_set_recall",
    "AnnotatorPool",
    "SimulatedAnnotator",
    "GoldSet",
    "build_gold_set",
    "RecallStudy",
    "PrecisionStudy",
    "QualificationTest",
    "UserStudy",
    "UserStudyResult",
    "EfficiencyStudy",
    "ParallelEfficiencyReport",
    "AgreementReport",
    "measure_agreement",
    "HierarchyMetrics",
    "hierarchy_metrics",
]
