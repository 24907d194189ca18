"""The benchmark's arithmetic on synthetic inputs."""

import pytest

from stats import (failed_share, layer_totals, self_times, stretch_medians,
                   stretch_rates, stretch_tails, tail_percentile)


def test_self_time_subtracts_nested_children():
    # root [0, 100) > child [10, 60) > grandchild [20, 30)
    own = self_times([0, 10, 20], [100, 60, 30], [-1, 0, 1])
    assert own.tolist() == [50, 40, 10]


def test_self_time_subtracts_every_sibling():
    # root [0, 100) with children [10, 30) and [40, 70)
    own = self_times([0, 10, 40], [100, 30, 70], [-1, 0, 0])
    assert own.tolist() == [50, 20, 30]


def test_self_time_of_a_root_without_children_is_its_duration():
    own = self_times([5, 50], [25, 80], [-1, -1])
    assert own.tolist() == [20, 30]


def test_layer_calling_itself_is_not_counted_twice():
    # Layer 0 calls itself ([0, 100) > [20, 80)), which calls layer 1.
    fid, parent = [0, 0, 1], [-1, 0, 1]
    start, end = [0, 20, 30], [100, 80, 50]
    self_ns, calls = layer_totals(fid, parent, start, end,
                                  function_layer=[0, 1], n_layers=2,
                                  selected=[True, True, True])
    assert self_ns.tolist() == [80, 20]
    assert calls.tolist() == [2, 1]
    # Shares of the root's 100 ns add up to the whole span.
    assert self_ns.sum() == 100


def test_layer_totals_subtracts_unselected_children():
    # Only the root is selected; its child's time is still not its own.
    self_ns, calls = layer_totals([0, 1], [-1, 0], [0, 10], [100, 90],
                                  function_layer=[0, 1], n_layers=2,
                                  selected=[True, False])
    assert self_ns.tolist() == [20, 0]
    assert calls.tolist() == [1, 0]


def test_p95_with_enough_samples_keeps_ten_beyond():
    samples = list(range(1, 201))  # 200 samples: p95 is the 190th
    percentile, value, beyond = tail_percentile(samples)
    assert (percentile, value, beyond) == (95.0, 190, 10)


def test_percentile_is_lowered_when_too_few_samples_lie_beyond():
    samples = list(range(1, 101))  # p95 would leave only 5 beyond
    percentile, value, beyond = tail_percentile(samples)
    assert beyond == 10
    assert percentile == 90.0
    assert value == 90


def test_percentile_selection_ignores_sample_order():
    samples = [float(x) for x in range(1000, 0, -1)]
    assert tail_percentile(samples) == (95.0, 950.0, 50)


def test_too_few_samples_for_any_tail_raise():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 15)  # ten beyond would be below the median


def test_stretch_rates_count_the_gaps_between_ops():
    # Four ops ending at 1, 2, 4, 8 s: the second stretch runs from 2 s.
    assert stretch_rates([1.0, 2.0, 4.0, 8.0], 2) == [1.0, 2 / 6]


def test_stretch_medians_cover_every_sample_once():
    assert stretch_medians([1, 2, 3, 10, 20, 30], 2) == [2, 20]


def test_stretch_tails_keep_ten_beyond_in_each_stretch():
    quiet = [1.0] * 190 + [2.0] * 10
    burst = [5.0] * 200
    percentile, tails, per_stretch, beyond = stretch_tails(quiet * 4 + burst,
                                                           20)
    assert (percentile, per_stretch, beyond) == (95.0, 200, 10)
    assert tails == [1.0, 1.0, 1.0, 1.0, 5.0]


def test_a_small_sample_keeps_one_stretch_and_lowers_the_percentile():
    assert stretch_tails(list(range(1, 101)), 20) == (90.0, [90], 100, 10)


def test_a_burst_does_not_reach_the_fastest_stretch():
    import run

    quiet, burst = [0.001] * 100, [0.003] * 100
    result = {"workload": "enclave_io", "ops": 400, "window_s": 0.8,
              "op_s": quiet + burst + quiet + burst,
              "op_end_s": [0.001 * (i + 1) for i in range(100)]
              + [0.1 + 0.003 * (i + 1) for i in range(100)]
              + [0.4 + 0.001 * (i + 1) for i in range(100)]
              + [0.5 + 0.003 * (i + 1) for i in range(100)],
              "setup_s": [0.5, 0.1, 0.2], "peak_rss_mb": 30.0,
              "attempted": 400, "failed": 0}
    values, _ = run.end_to_end(result)
    assert values["ops_per_s"] == pytest.approx(1000.0)
    assert values["op_p50_us"] == pytest.approx(1000.0)
    assert values["setup_s"] == 0.1


@pytest.mark.parametrize("attempted, failed, share", [
    (100, 0, 0.0), (100, 1, 0.01), (8, 8, 1.0)])
def test_failed_share(attempted, failed, share):
    assert failed_share(attempted, failed) == share


@pytest.mark.parametrize("attempted, failed", [(0, 0), (10, 11), (10, -1)])
def test_failed_share_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        failed_share(attempted, failed)


def test_measurement_counts_each_failure_once():
    from workloads import Measurement

    m = Measurement("enclave_io", 1, 10)
    for i in range(7):
        m.fail(f"op {i}: read-back mismatch")
    assert m.failed == 7
    assert len(m.failures) == 5  # messages are capped, counts are not


def test_a_window_check_fails_the_run_without_counting_an_op():
    from workloads import Measurement

    m = Measurement("control_plane", 1, 10)
    m.fail_window("9 EMS requests served, expected 70")
    assert (m.failed, m.window_ok) == (0, False)
    assert m.failures == ["9 EMS requests served, expected 70"]
