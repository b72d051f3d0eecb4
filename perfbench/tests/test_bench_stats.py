import pytest

from stats import percentile, quartile_spread, tail_latency


def test_percentile_interpolates_linearly():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 99.0) == 5.0
    assert percentile(range(1, 101), 90.0) == pytest.approx(90.1)


@pytest.mark.parametrize("n, expected_p", [
    (12, 100.0),    # no candidate has ten samples beyond it: the maximum
    (37, 100.0),
    (38, 75.0),
    (100, 90.0),
    (199, 95.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected_p):
    values = [float(v) for v in range(1, n + 1)]
    value, p, beyond = tail_latency(values)
    assert p == expected_p
    assert value == percentile(values, p)
    assert beyond == sum(1 for v in values if v > value)
    if p < 100.0:
        assert beyond >= 10
    else:
        assert value == max(values) and beyond == 0


def test_tail_counts_only_samples_strictly_beyond():
    # ties at the percentile value are not beyond it
    values = [1.0] * 95 + [2.0] * 5
    value, p, beyond = tail_latency(values)
    assert (value, p, beyond) == (2.0, 100.0, 0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = 11.75, 14.5, 17.25
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)
