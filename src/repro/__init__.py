"""repro — a reproduction of TIPSY (SIGCOMM 2022).

TIPSY predicts through which peering links traffic will ingress a cloud
WAN, enabling safe BGP-withdrawal-based congestion mitigation.  This
package reproduces the full system around a synthetic Internet:

* :mod:`repro.topology` — metros, AS graph, the cloud WAN
* :mod:`repro.bgp` — routing policy, propagation, ingress simulation
* :mod:`repro.traffic` — prefixes, workloads, flow generation
* :mod:`repro.telemetry` — IPFIX, BMP, Geo-IP, metadata
* :mod:`repro.pipeline` — aggregation, encoding, outage inference
* :mod:`repro.core` — the TIPSY models and accuracy metric
* :mod:`repro.cms` — congestion mitigation and risk analysis
* :mod:`repro.experiments` — scenarios and the paper's evaluation
* :mod:`repro.analysis` — ``repro lint`` determinism & concurrency checks
* :mod:`repro.obs` — metrics, trace spans, ``repro obs`` export
* :mod:`repro.util` — deterministic hashing, exact sums

``docs/architecture.md`` maps the layers and the daily retrain +
serving data flow.

Quickstart::

    from repro.experiments import Scenario, ScenarioParams, EvaluationRunner

    scenario = Scenario(ScenarioParams.small(seed=7))
    result = EvaluationRunner(scenario).run()
    print(result.overall.rows["Hist_AP/AL/A"])
"""

__version__ = "1.0.0"

from .core import (
    FEATURES_A,
    FEATURES_AL,
    FEATURES_AP,
    GeoAugmentedModel,
    HistoricalModel,
    IngressModel,
    NaiveBayesModel,
    OracleModel,
    Prediction,
    SequentialEnsemble,
)

__all__ = [
    "__version__",
    "FEATURES_A", "FEATURES_AL", "FEATURES_AP",
    "GeoAugmentedModel", "HistoricalModel", "IngressModel",
    "NaiveBayesModel", "OracleModel", "Prediction", "SequentialEnsemble",
]
