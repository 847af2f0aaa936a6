"""The benchmark's statistics on fixed samples."""

import pytest

import measure


def test_median_of_odd_and_even_samples():
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    assert measure.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        measure.median([])


def test_percentile_is_the_nearest_rank():
    samples = [float(value) for value in range(1, 201)]
    assert measure.percentile(samples, 0.95) == 190.0
    assert measure.percentile(list(reversed(samples)), 0.95) == 190.0
    assert measure.percentile(samples, 0.5) == 100.0


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.samples_needed(0.95) == 200
    assert measure.samples_needed(0.99) == 1000
    measure.percentile(range(200), 0.95)
    with pytest.raises(ValueError, match="9 beyond"):
        measure.percentile(range(199), 0.95)
    with pytest.raises(ValueError):
        measure.percentile(range(19), 0.5)
