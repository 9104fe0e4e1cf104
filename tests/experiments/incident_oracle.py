"""The hand-trained incident predictor ``IncidentWorld.service`` replaced,
kept as an oracle.

The incident replays used to train Hist_AL+G themselves: each hour's
IPFIX-sampled estimate, its entries of positive bytes in sample order,
folded into one ``DayCounts`` and projected onto the AL grain.  A
:class:`~repro.core.service.TipsyService` trains on completed days only,
so over whole days (``train_hours`` a multiple of 24) the two must
answer alike, bit for bit.  :class:`OracleService` puts the model where
a replay asks its service.
"""

import numpy as np

from repro.bgp import AdvertisementState
from repro.core.features import FEATURES_AL
from repro.core.geo_augment import GeoAugmentedModel
from repro.core.historical import HistoricalModel
from repro.core.training import DayCounts
from repro.pipeline.records import AggColumns


def train_incident_model(world, train_hours):
    """Hist_AL+G over the world's first ``train_hours`` hours, folded by
    hand into one ``DayCounts``."""
    state = AdvertisementState(world.wan)
    contexts = np.array(world.contexts, dtype=np.int64)
    counts = DayCounts()
    for hour in range(train_hours):
        sample = world.entries_for_hour(hour, state)
        sampled = world.exporter.sample_bytes(sample.bytes, hour)
        kept = sampled > 0.0
        counts.add_hour(AggColumns(
            hour, sample.link_ids[kept],
            *contexts[sample.flow_rows[kept]].T, sampled[kept]))
    hist_al = HistoricalModel.from_arrays(counts.project(FEATURES_AL),
                                          FEATURES_AL)
    return GeoAugmentedModel(hist_al, world.wan, name="Hist_AL+G")


class OracleService:
    """The two queries a replay asks its service, answered by a bare
    model: ``what_if`` (CMS's) and ``predict_batch`` (§6's)."""

    def __init__(self, model):
        self.model = model

    def what_if(self, flows, withdrawn, k):
        return self.model.what_if(flows, withdrawn, k)

    def predict_batch(self, contexts, k, unavailable):
        return [self.model.predict(context, k, frozenset(unavailable))
                for context in contexts]


def oracle_service(world):
    """A replay's ``world.service``, answered by :func:`train_incident_model`
    over the completed pre-incident days."""
    def service(hours):
        assert hours == world.surge_start_hour
        return OracleService(train_incident_model(
            world, world.surge_start_hour // 24 * 24))
    return service
