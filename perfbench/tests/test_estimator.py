"""Slot-min / quantile / throughput math on synthetic matrices."""

import math

import numpy as np
import pytest

from perfbench import estimator

NAN = math.nan


def test_slot_minimum_is_per_column_min():
    samples = [[5.0, 2.0, 9.0], [4.0, 3.0, 9.5], [6.0, 2.5, 8.0]]
    assert estimator.slot_minimum(samples).tolist() == [4.0, 2.0, 8.0]


def test_failed_execution_makes_its_slot_infinite():
    samples = [[5.0, NAN, 9.0], [4.0, 3.0, 9.5]]
    minima = estimator.slot_minimum(samples)
    assert minima[0] == 4.0 and math.isinf(minima[1]) and minima[2] == 9.0


def test_slot_minimum_rejects_empty_input():
    with pytest.raises(ValueError):
        estimator.slot_minimum([])


def test_additive_interference_does_not_move_the_minimum():
    rng = np.random.default_rng(0)
    program = rng.uniform(1.0, 50.0, size=104)
    noise = rng.exponential(5.0, size=(12, 104))
    noise[rng.integers(0, 12, size=104), np.arange(104)] = 0.0   # one clean sample each
    assert np.allclose(estimator.slot_minimum(program + noise), program)


def test_quantile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert estimator.quantile(values, 0.5) == 30.0
    assert estimator.quantile(values, 0.9) == pytest.approx(46.0)
    assert estimator.quantile(values, 0.0) == 10.0 and estimator.quantile(values, 1.0) == 50.0
    assert estimator.quantile(values, 0.9) == pytest.approx(np.quantile(values, 0.9))


def test_quantile_with_failed_slots():
    values = [1.0] * 95 + [math.inf] * 9
    assert estimator.quantile(values, 0.5) == 1.0
    assert estimator.quantile(values, 0.9) == 1.0          # position 92.7: both finite
    assert math.isinf(estimator.quantile(values + [math.inf] * 4, 0.9))


def test_p90_needs_ten_slots_beyond_it():
    assert estimator.slots_beyond(104, 0.9) == 10
    assert estimator.slots_beyond(108, 0.9) == 10
    assert estimator.slots_beyond(100, 0.9) == 9            # not enough
    assert estimator.slots_beyond(16, 0.9) == 1             # --quick


def test_throughput_one_client_is_slots_over_total_time():
    assert estimator.throughput([0.5, 0.25, 0.25], [0, 0, 0]) == pytest.approx(3.0)


def test_throughput_takes_the_busiest_client():
    # client 0 needs 2 s, client 1 needs 1 s, concurrently: 4 ops in 2 s.
    assert estimator.throughput([1.0, 1.0, 0.5, 0.5], [0, 0, 1, 1]) == pytest.approx(2.0)


def test_throughput_is_zero_when_an_op_failed():
    assert estimator.throughput([1.0, math.inf], [0, 0]) == 0.0


def test_interference_ratio():
    assert estimator.interference_ratio([[1.0, 2.0], [1.0, 2.0]]) == pytest.approx(1.0)
    assert estimator.interference_ratio([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(1.5)
    # a failed slot is left out rather than poisoning the ratio
    assert estimator.interference_ratio([[1.0, NAN], [3.0, 4.0]]) == pytest.approx(2.0)


def test_speed_factor_is_a_low_quantile_of_each_replay_over_the_reference():
    quiet = [100.0] * 4 + [130.0] * 7          # bursts do not reach the tenth percentile
    busy = [250.0] * 11
    factors = estimator.speed_factors([quiet, busy], reference=100)
    assert factors.tolist() == [1.0, 2.5]


def test_a_uniformly_slow_run_is_reported_at_reference_speed():
    rng = np.random.default_rng(1)
    program = rng.uniform(1.0, 50.0, size=104)
    quiet = program * (1 + rng.exponential(0.2, size=(9, 104)))
    quiet[rng.integers(0, 9, size=104), np.arange(104)] = program
    probe = 100 * (1 + rng.exponential(0.2, size=(9, 104)))
    probe[:, ::5] = 100
    slow = 1.3        # the whole machine 30 % slower for the whole run
    for latency, probes in ((quiet, probe), (quiet * slow, probe * slow)):
        factors = estimator.speed_factors(probes, reference=100)[:, None]
        assert np.allclose(estimator.slot_minimum(latency / factors), program)
