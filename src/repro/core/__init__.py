"""TIPSY core: feature sets, prediction models, accuracy metric, training.

The paper's contribution: byte-weighted historical models (Hist_A /
Hist_AP / Hist_AL), specific-to-general ensembles, the geographic
AL+G completion for never-seen withdrawals, Naive Bayes baselines and
the oracle, all scored by byte-weighted top-k accuracy (§5.1.2).  Also
home to :class:`~repro.core.service.TipsyService`, the online §4
surface: a :class:`~repro.core.window.RollingWindow` whose daily fold
rebuilds the served suite (:func:`~repro.core.ensemble.build_suite`),
and batched ``predict_batch`` / ``what_if`` serving with a bounded memo.
"""

from .features import (
    ALL_FEATURE_SETS,
    FEATURES_A,
    FEATURES_AL,
    FEATURES_AP,
    FEATURES_APL,
    FeatureSet,
)
from .base import NO_LINKS, IngressModel, Prediction
from .historical import HistoricalModel
from .naive_bayes import NaiveBayesModel
from .ensemble import SequentialEnsemble
from .geo_augment import GeoAugmentedModel
from .oracle import OracleModel
from .accuracy import ActualsTable, evaluate_accuracy
from .anomaly import (
    AnomalyDetectorConfig,
    AnomalyVerdict,
    IngressAnomalyDetector,
)
from .service import ServiceConfig, TipsyService

__all__ = [
    "AnomalyDetectorConfig", "AnomalyVerdict", "IngressAnomalyDetector",
    "ServiceConfig", "TipsyService",
    "ALL_FEATURE_SETS", "FEATURES_A", "FEATURES_AL", "FEATURES_AP",
    "FEATURES_APL", "FeatureSet",
    "NO_LINKS", "IngressModel", "Prediction",
    "HistoricalModel", "NaiveBayesModel", "SequentialEnsemble",
    "GeoAugmentedModel", "OracleModel",
    "ActualsTable", "evaluate_accuracy",
]
