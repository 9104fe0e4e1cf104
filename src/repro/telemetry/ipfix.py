"""IPFIX flow export with packet sampling.

The Azure WAN samples 1 out of every 4096 packets at random and scales
byte counts back up by the sampling rate (paper §4.1).  The exporter here
reproduces that: true per-link byte counts are converted to packets,
thinned with a binomial draw, and scaled back — so low-volume flows may
vanish from telemetry entirely while high-volume flows get a small
relative error.  All downstream components (pipeline, models, outage
inference) consume only these sampled records, never ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.hashing import mix64

DEFAULT_SAMPLING_RATE = 4096
DEFAULT_PACKET_BYTES = 1000.0


@dataclass(frozen=True)
class IpfixRecord:
    """One exported (hour, link, flow) observation.

    ``bytes`` is already scaled up by the sampling rate, as in the paper.
    """

    hour: int
    link_id: int
    src_prefix_id: int
    src_asn: int
    dest_prefix_id: int
    bytes: float


class IpfixExporter:
    """Samples true per-link flow bytes into IPFIX records."""

    def __init__(
        self,
        sampling_rate: int = DEFAULT_SAMPLING_RATE,
        packet_bytes: float = DEFAULT_PACKET_BYTES,
        seed: int = 0,
    ):
        if sampling_rate < 1:
            raise ValueError("sampling rate must be >= 1")
        self.sampling_rate = sampling_rate
        self.packet_bytes = packet_bytes
        self.seed = seed

    def sample_bytes(self, true_bytes: np.ndarray, hour: int) -> np.ndarray:
        """Vectorised sampling: true bytes -> scaled-up sampled estimate.

        Deterministic per (exporter seed, hour).  Entries whose sampled
        packet count is zero come back as exactly 0.0 — those flows are
        invisible to TIPSY for that hour, just as in the real pipeline.
        """
        if self.sampling_rate == 1:
            return np.asarray(true_bytes, dtype=float).copy()
        rng = np.random.default_rng(mix64(hour, 0xF10, seed=self.seed))
        packets = np.maximum(
            np.asarray(true_bytes, dtype=float) / self.packet_bytes, 0.0)
        # Binomial(n, p) with large n, small p: Poisson thinning is the
        # standard, cheap approximation and is exact in distribution limit.
        sampled = rng.poisson(packets / self.sampling_rate)
        return sampled * self.sampling_rate * self.packet_bytes
