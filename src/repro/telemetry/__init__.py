"""Telemetry substrate: IPFIX, BMP, Geo-IP, metadata.

The lossy window through which TIPSY sees the world: packet-sampled
IPFIX export (the paper's §4.1 telemetry), BMP route feeds, Geo-IP
metro lookup, and the deliberately unreliable SNMP poller the paper
rejected (§5.1.1), kept for comparison studies.  Models never see
ground truth — only what survives sampling here and aggregation in
:mod:`repro.pipeline`.
"""

from .ipfix import DEFAULT_PACKET_BYTES, DEFAULT_SAMPLING_RATE, IpfixExporter, IpfixRecord
from .geoip import GeoIPDatabase
from .bmp import BmpFeed, BmpMessage, Route
from .metadata import MetadataStore
from .snmp import (
    InferenceQuality,
    SnmpParams,
    SnmpPoller,
    SnmpReading,
    compare_inference,
    infer_outages_from_snmp,
)

__all__ = [
    "DEFAULT_PACKET_BYTES", "DEFAULT_SAMPLING_RATE", "IpfixExporter", "IpfixRecord",
    "GeoIPDatabase", "BmpFeed", "BmpMessage", "Route", "MetadataStore",
    "InferenceQuality", "SnmpParams", "SnmpPoller", "SnmpReading",
    "compare_inference", "infer_outages_from_snmp",
]
