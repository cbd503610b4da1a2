import math
import statistics

import pytest

import stats


def test_band_mean_averages_the_ranks_around_the_percentile():
    values = list(range(1, 101))  # 1..100, shuffled below
    shuffled = values[::2] + values[1::2]
    assert stats.band_mean(shuffled, 50) == pytest.approx(statistics.mean(range(46, 56)))
    assert stats.band_mean(shuffled, 90) == pytest.approx(statistics.mean(range(86, 96)))
    assert stats.band_mean([7.0], 90) == 7.0
    assert stats.band_mean([1.0, 3.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.band_mean([], 50)


def test_band_mean_does_not_jump_in_the_gap_between_two_latency_classes():
    # Two classes, equal op counts: a plain median is the midpoint of the
    # slowest fast op and the fastest slow op, i.e. of two outliers.
    fast = [100.0] * 15 + [140.0]
    slow = [160.0] + [200.0] * 15
    plain = statistics.median(fast + slow)
    calm = statistics.median([100.0] * 16 + [200.0] * 16)
    assert plain == calm == 150.0
    assert stats.band_mean(fast + slow, 50) == pytest.approx(150.0)
    jumpy = [100.0] * 15 + [101.0] + [160.0] + [200.0] * 15
    assert statistics.median(jumpy) == pytest.approx(130.5)
    assert abs(stats.band_mean(jumpy, 50) - 150.0) < abs(statistics.median(jumpy) - 150.0)


def test_low_mid_mean_is_the_level_of_the_pile_not_of_its_tail():
    pile = [7.0 + 0.01 * i for i in range(10)]
    assert stats.low_mid_mean(pile) == pytest.approx(statistics.mean(pile[1:6]))
    # A contended tail that is 45 % of the samples in one run and 55 % in
    # the next flips their median from one mode to the other; the level
    # moves by the tail's growing share of the window only.
    few, many = pile * 11 + [12.0] * 90, pile * 9 + [12.0] * 110
    jump = statistics.median(many) - statistics.median(few)
    assert jump > 4.0
    assert 0 < stats.low_mid_mean(many) - stats.low_mid_mean(few) < jump / 4
    assert stats.low_mid_mean([3.0]) == 3.0
    with pytest.raises(ValueError):
        stats.low_mid_mean([])


def test_geomean_moves_equally_for_a_2x_win_on_any_class():
    base = [1.0, 10.0, 100.0]
    assert stats.geomean(base) == pytest.approx(10.0)
    for index in range(3):
        halved = list(base)
        halved[index] /= 2
        assert stats.geomean(halved) == pytest.approx(10.0 / 2 ** (1 / 3))
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


def test_iqr_share_is_the_contract_spread():
    values = [10.0, 10.5, 9.5, 10.2, 9.9, 10.1, 9.8, 10.3, 9.7, 10.4]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.iqr_share([5.0]) is None


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_latency_summary_takes_geomean_over_class_medians():
    summary = stats.latency_summary({"a": [1.0, 2.0, 3.0], "b": [8.0, 8.0, 8.0]})
    assert summary["samples"] == 6
    assert summary["class_median_ms"] == {"a": 2.0, "b": 8.0}
    assert summary["geomean_ms"] == pytest.approx(math.sqrt(16.0))
    assert summary["latency_ms_p50"] == pytest.approx(5.5)
    assert summary["latency_ms_p90"] == pytest.approx(8.0)
