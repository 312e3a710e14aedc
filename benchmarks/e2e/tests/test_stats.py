import pytest

from stats import median, percentile, rank, supported


def test_nearest_rank_returns_a_measured_value():
    values = sorted([15, 20, 35, 40, 50])
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50


def test_rank_is_ceil_of_share():
    assert rank(100, 90) == 90
    assert rank(101, 90) == 91
    assert rank(1, 50) == 1
    with pytest.raises(ValueError):
        rank(0, 50)
    with pytest.raises(ValueError):
        rank(10, 0)


def test_median_of_even_count_is_the_lower_middle_sample():
    assert median([4, 1, 3, 2]) == 2


def test_ten_samples_beyond_rule():
    # p90 of 100 samples sits at rank 90: exactly ten lie beyond it.
    assert supported(100, 90)
    assert not supported(99, 90)
    # p50 needs twenty samples, p99 a thousand.
    assert supported(20, 50) and not supported(19, 50)
    assert supported(1000, 99) and not supported(999, 99)
    assert supported(10000, 99.9) and not supported(9999, 99.9)
    assert not supported(0, 50)
