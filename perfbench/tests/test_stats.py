"""Percentile choice under the ten-samples-beyond rule."""

import pytest

import stats


def test_named_percentiles_need_the_documented_sample_counts():
    assert stats.min_samples(50) == 20
    assert stats.min_samples(75) == 40
    assert stats.min_samples(95) == 200


@pytest.mark.parametrize("n, p, ok", [
    (200, 95, True), (199, 95, False), (40, 75, True), (39, 75, False),
    (20, 50, True), (19, 50, False), (0, 50, False)])
def test_supports_counts_samples_strictly_beyond(n, p, ok):
    assert stats.supports(n, p) is ok


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == pytest.approx(2.5)
    assert stats.percentile([7.0], 95) == 7.0


def test_empty_inputs():
    assert stats.percentile([], 50) != stats.percentile([], 50)  # nan
    assert stats.ratio(3, 0) == 0.0
