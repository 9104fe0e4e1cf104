"""Feature sets for ingress prediction (paper §3.2, Table 1).

Every model always uses the source AS and both destination features; the
sets differ in whether they add the source /24 prefix (P) and/or the
source location (L).  Because each /24 has exactly one location, APL is
equivalent to AP — mirrored here for completeness and asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Tuple

from ..pipeline.records import FlowContext


@dataclass(frozen=True)
class FeatureSet:
    """A named subset of :class:`FlowContext` fields used as a model key."""

    name: str
    fields: Tuple[str, ...]

    def __post_init__(self) -> None:
        valid = set(FlowContext._fields)
        for f in self.fields:
            if f not in valid:
                raise ValueError(f"unknown feature field {f!r}")
        # attrgetter with several names returns the key tuple itself, so
        # it is the key: one C call, no method frame around it
        if len(self.fields) > 1:
            object.__setattr__(self, "key", attrgetter(*self.fields))

    def key(self, context: FlowContext) -> Tuple[object, ...]:
        """Extract this feature set's key tuple from a flow context."""
        return tuple(getattr(context, f) for f in self.fields)


#: AS + destination region + destination type
FEATURES_A = FeatureSet("A", ("src_asn", "dest_region", "dest_service"))
#: A + source /24 prefix
FEATURES_AP = FeatureSet(
    "AP", ("src_asn", "src_prefix", "dest_region", "dest_service"))
#: A + source location (metro)
FEATURES_AL = FeatureSet(
    "AL", ("src_asn", "src_loc", "dest_region", "dest_service"))
#: A + prefix + location; equivalent to AP when location is a function of
#: the prefix (always true in this dataset, as in the paper's)
FEATURES_APL = FeatureSet(
    "APL", ("src_asn", "src_prefix", "src_loc", "dest_region", "dest_service"))

ALL_FEATURE_SETS: Tuple[FeatureSet, ...] = (
    FEATURES_A, FEATURES_AP, FEATURES_AL, FEATURES_APL)
