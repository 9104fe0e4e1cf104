"""The synthetic world, pinned to the bit, and the work its build does.

A seeded world is the dataset every workload and paper table stands
on: the same seed must draw the same world.  The digests below were
computed from the flow-by-flow build (each ``FlowSpec`` built twice,
two scalar ``geometric_day`` calls per flow); any change to a drawn
rate, a lifetime, a shift day or a flow's features fails them.
"""

import dataclasses
import hashlib
import sys

import numpy as np
import pytest

from repro.experiments import Scenario, ScenarioParams
from repro.traffic.generator import FlowSpec
from repro.util import hashing

from tests.bgp.resolve_oracle import drift_days

#: sha256 of :func:`world_digest`, by world (seed 0)
DIGESTS = {
    "small":
        "8ba50f60421ab9c8a388172ee59fb78aff0a71fc731dae04945ec6aa4f7ac8f4",
    "medium":
        "d7f1191512ed00e67c1c720b33b1ba47aa5561012710b84b2530045e22cd5145",
}


def world_digest(scenario: Scenario) -> str:
    """sha256 over every ``FlowSpec`` field (floats as ``float.hex``),
    the shift-day columns and the flow contexts."""
    digest = hashlib.sha256()
    for flow in scenario.traffic.flows:
        for field in dataclasses.fields(flow):
            value = getattr(flow, field.name)
            digest.update((value.hex() if isinstance(value, float)
                           else repr(value)).encode())
            digest.update(b"|")
        digest.update(b"\n")
    digest.update(scenario._shift_days.astype("<i8").tobytes())
    for context in scenario.flow_contexts:
        digest.update(repr(tuple(context)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("size", sorted(DIGESTS))
def test_the_world_is_pinned_to_the_bit(size):
    scenario = Scenario(getattr(ScenarioParams, size)(seed=0))
    assert world_digest(scenario) == DIGESTS[size]


@pytest.mark.parametrize("params", [
    ScenarioParams.small(seed=4), ScenarioParams.medium(seed=1),
    ScenarioParams(seed=2)], ids=["small", "medium", "paper"])
def test_shift_days_are_the_scalar_oracles(params):
    """Every flow's shift days, one ``geometric_day`` per flow and salt."""
    scenario = Scenario(params)
    sim = scenario.simulator
    flows = scenario.traffic.flows
    assert scenario._shift_days.dtype == np.int64
    assert scenario._shift_days.tolist() == [
        list(drift_days(sim, f.src_asn, f.src_prefix_id, f.dest_prefix_id))
        for f in flows]
    # the worlds draw shift days on both sides of their horizon
    assert (scenario._shift_days < params.horizon_days).any()
    assert (scenario._shift_days >= params.horizon_days).any()


class TestCountedWorldBuild:
    """What building a small world pays for, counted call by call."""

    def test_each_flow_spec_is_built_once(self, monkeypatch):
        built = []
        real = FlowSpec.__init__

        def init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["flow_id"])
            real(self, *args, **kwargs)
        monkeypatch.setattr(FlowSpec, "__init__", init)
        scenario = Scenario(ScenarioParams.small(seed=3))
        assert built == [f.flow_id for f in scenario.traffic.flows]

    def test_no_scalar_geometric_day(self, monkeypatch):
        """The shift days are hashed as columns: no module of the
        package calls the scalar ``geometric_day`` while building."""
        called = []
        real = hashing.geometric_day

        def scalar(*args, **kwargs):
            called.append(args)
            return real(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(module, "geometric_day", None) is real):
                monkeypatch.setattr(module, "geometric_day", scalar)
        Scenario(ScenarioParams.small(seed=3))
        assert called == []

    def test_an_as_hands_out_its_prefixes_without_a_copy(self):
        universe = Scenario(ScenarioParams.small(seed=3)).universe
        for asn in universe.asns():
            prefixes = universe.of_as(asn)
            assert isinstance(prefixes, tuple)
            assert universe.of_as(asn) is prefixes
        assert universe.of_as(-1) == ()
