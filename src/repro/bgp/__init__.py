"""BGP substrate: advertisement state, propagation, ingress simulation.

This package plays the role of "the Internet" in the reproduction:
which (prefix, link) pairs the WAN advertises, Gao–Rexford route
propagation over the AS graph, and the
:class:`~repro.bgp.simulator.IngressSimulator`,
which decides — as ground truth — which WAN link each flow actually
enters through, including hot-potato shifts after withdrawals and
outages.  The policies here stand in for other ASes' confidential
routing configuration and are deliberately invisible to the models in
:mod:`repro.core` (see the ground-truth wall in
``docs/architecture.md``).
"""

from .state import AdvertisementState
from .propagation import (
    MAX_NEXTHOPS,
    RouteInfo,
    RoutingTable,
    SPRAY_TOLERANCE,
    UNREACHABLE,
    compute_routing_table,
    default_bias,
)
from .simulator import IngressSimulator, SimulatorParams

__all__ = [
    "AdvertisementState",
    "MAX_NEXTHOPS", "RouteInfo", "RoutingTable", "SPRAY_TOLERANCE",
    "UNREACHABLE", "compute_routing_table", "default_bias",
    "IngressSimulator", "SimulatorParams",
]
