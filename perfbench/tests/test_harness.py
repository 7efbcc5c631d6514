"""The statistic every wall-clock metric is reported as."""

from perfbench.harness import typical


def test_typical_drops_a_tenth_at_each_end_rounded():
    assert typical([3.0, 1.0, 2.0]) == 2.0
    assert typical([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    assert typical([5.0] * 14 + [1000.0]) == 5.0
    assert typical([0.5] + [2.0] * 13 + [9.0]) == 2.0


def test_typical_follows_the_share_of_time_at_each_speed():
    # A median would read the slow speed for both runs.
    assert typical([1.0] * 4 + [2.0] * 6) < typical([1.0] * 2 + [2.0] * 8)
