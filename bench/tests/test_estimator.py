"""The estimator: each segment's best time, whole-repetition diagnostics."""

import statistics

from bench import estimator


def test_segment_floor_sums_each_segments_best_time():
    reps = [[1.0, 5.0, 1.0],   # slow in the middle
            [4.0, 1.0, 1.1],   # slow at the start
            [1.2, 1.1, 9.0]]   # slow at the end
    assert estimator.segment_floor(reps) == 1.0 + 1.0 + 1.0
    # Never above the fastest whole repetition.
    assert estimator.segment_floor(reps) <= min(map(sum, reps))
    assert estimator.segment_floor([[2.0, 3.0]]) == 5.0


def test_parallel_lanes_cost_their_slowest_lanes_best_time():
    reps = [[0.5, (2.0, 3.0), 0.1],
            [0.4, (2.6, 2.1), 0.2]]
    assert estimator.rep_wall(reps[0]) == 0.5 + 3.0 + 0.1
    # lane 0 best 2.0, lane 1 best 2.1: the phase cannot beat 2.1.
    assert estimator.segment_floor(reps) == 0.4 + 2.1 + 0.1


def test_repetitions_cut_differently_fall_back_to_the_fastest_whole():
    assert estimator.segment_floor([[1.0, 1.0], [0.5, 0.5, 0.5]]) == 1.5


def test_summarize_reports_whole_repetition_diagnostics():
    reps = [[1.25, 1.25], [1.1, 1.1], [2.21], [1.45, 1.45], [1.11, 1.11]]
    walls = sorted(estimator.rep_wall(rep) for rep in reps)
    s = estimator.summarize(reps)
    assert s["min_s"] == walls[0] == 2.2
    assert s["median_s"] == statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    assert s["spread"] == (q3 - q1) / statistics.median(walls)
    assert s["noisy"] is False  # 2.20 .. 2.22 spans 0.9 %


def test_noisy_flags_a_wide_span_of_the_three_fastest():
    def noisy(*walls):
        return estimator.summarize([[w] for w in walls])["noisy"]

    assert noisy(2.0, 2.05, 2.09, 9.0) is True
    assert noisy(2.0, 2.05, 2.07, 9.0) is False
    # Two repetitions: the flag looks at what there is.
    assert noisy(2.0, 2.2) is True


def test_spread_is_the_quartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert estimator.spread(values) == (q3 - q1) / statistics.median(values)
    assert estimator.spread([5.0]) == 0.0
    assert estimator.spread([5.0, 5.0, 5.0]) == 0.0


def test_fixed_reps_override_the_budget():
    assert estimator.more_reps_wanted([], reps=2, seconds=0.0)
    assert estimator.more_reps_wanted([9.0], reps=2, seconds=0.0)
    assert not estimator.more_reps_wanted([9.0, 9.0], reps=2, seconds=99.0)


def test_budget_repeats_between_min_and_max_reps():
    lo, hi = estimator.MIN_REPS, estimator.MAX_REPS
    # Slow repetitions still give MIN_REPS of them.
    assert estimator.more_reps_wanted([50.0] * (lo - 1), 0, 10.0)
    assert not estimator.more_reps_wanted([50.0] * lo, 0, 10.0)
    # Budget not used up: go on, but never past MAX_REPS.
    assert estimator.more_reps_wanted([2.0] * 4, 0, 10.0)
    assert not estimator.more_reps_wanted([2.0] * 5, 0, 10.0)
    assert not estimator.more_reps_wanted([0.1] * hi, 0, 10.0)


def test_timed_segments_cuts_the_region_at_every_mark():
    def run(mark):
        mark()
        mark()
        return "ret"

    segments, value = estimator.timed_segments(run)
    assert value == "ret" and len(segments) == 3
    assert all(seg >= 0.0 for seg in segments)
    assert len(estimator.timed_segments(lambda mark: None)[0]) == 1


def test_setup_sampling_tops_up_to_enough_samples_and_enough_time():
    samples = [0.5]
    calls = []
    estimator.sample_setup(lambda: calls.append(1), samples,
                           min_samples=4, min_total_s=0.0)
    assert len(samples) == 4 and len(calls) == 3
    estimator.sample_setup(lambda: calls.append(1), samples,
                           min_samples=4, min_total_s=0.0)
    assert len(calls) == 3  # already enough: nothing more is built
    estimator.sample_setup(lambda: calls.append(1), samples,
                           min_samples=0, min_total_s=0.5001)
    assert sum(samples) >= 0.5001 and min(samples) > 0.0
