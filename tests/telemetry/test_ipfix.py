"""Tests for IPFIX packet sampling."""

import numpy as np
import pytest

from repro.telemetry import IpfixExporter


class TestSampling:
    def test_deterministic_per_hour(self):
        exporter = IpfixExporter(seed=5)
        true = np.array([1e9, 5e8, 1e6])
        assert np.array_equal(exporter.sample_bytes(true, 10),
                              exporter.sample_bytes(true, 10))

    def test_different_hours_differ(self):
        exporter = IpfixExporter(seed=5)
        true = np.full(100, 1e9)
        a = exporter.sample_bytes(true, 1)
        b = exporter.sample_bytes(true, 2)
        assert not np.array_equal(a, b)

    def test_unbiased_estimate(self):
        exporter = IpfixExporter(seed=5)
        true = np.full(2000, 1e9)
        sampled = exporter.sample_bytes(true, 3)
        assert sampled.mean() == pytest.approx(1e9, rel=0.05)

    def test_small_flows_can_vanish(self):
        exporter = IpfixExporter(seed=5)
        # ~1 packet of 1000B: sampled with p=1/4096, almost always zero
        true = np.full(500, 1000.0)
        sampled = exporter.sample_bytes(true, 3)
        assert (sampled == 0.0).sum() > 450

    def test_sampled_values_are_multiples_of_quantum(self):
        exporter = IpfixExporter(sampling_rate=4096, packet_bytes=1000.0,
                                 seed=5)
        true = np.full(100, 1e10)
        sampled = exporter.sample_bytes(true, 3)
        quantum = 4096 * 1000.0
        assert np.allclose(sampled % quantum, 0.0)

    def test_rate_one_is_identity(self):
        exporter = IpfixExporter(sampling_rate=1)
        true = np.array([123.0, 0.0, 9e9])
        assert np.array_equal(exporter.sample_bytes(true, 1), true)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            IpfixExporter(sampling_rate=0)
