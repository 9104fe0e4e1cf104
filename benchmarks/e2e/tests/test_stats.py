"""The percentile helper: nearest rank, and no tails without samples."""

import pytest

from tipsybench import stats


def test_nearest_rank_returns_a_real_sample():
    samples = list(range(1, 2001))          # 1..2000
    assert stats.percentile(samples, 99) == 1980
    assert stats.percentile(samples, 50) == 1000
    assert stats.percentile([5.0] * 30 + [7.0] * 30, 50) == 5.0


def test_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    # p99 of 1000 samples: rank 990, exactly ten beyond -> allowed
    assert stats.percentile(list(range(1000)), 99) == 989
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 99)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(100)), 95)
    # the low tail is guarded the same way
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(100)), 5)
    assert stats.percentile(list(range(100)), 90) == 89


def test_rejects_percentiles_outside_the_open_interval():
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 100, 100)
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 100, 0)


def test_quartiles_of_one_sample_are_that_sample():
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_mean_of_group_medians_weighs_every_group_once():
    # three questions, 1 ms / 10 ms / 100 ms; the big one asked once more
    samples = [1.0, 1.2, 10.0, 10.2, 100.0, 101.0, 109.0]
    questions = [0, 0, 1, 1, 2, 2, 2]
    assert stats.mean_of_group_medians(samples, questions) == pytest.approx(
        (1.1 + 10.1 + 101.0) / 3)
    # asking one question more often does not move it ...
    assert stats.mean_of_group_medians(
        samples + [101.0] * 5, questions + [2] * 5) == pytest.approx(
            (1.1 + 10.1 + 101.0) / 3)
    # ... where the pooled median would jump to another question's cluster
    assert stats.median(samples + [101.0] * 5) == pytest.approx(101.0)
