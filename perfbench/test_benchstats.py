"""Self-test of the benchmark's arithmetic.

  python3 perfbench/test_benchstats.py      (or: python3 perfbench/run.py --self-test)
"""

import unittest

from benchstats import (Span, assign_parents, attribute_wall, failed_ratio, self_times,
                        tail_percentile)


def span(lane, name, layer, start, end):
    return Span(lane, name, layer, start, end)


class SelfTime(unittest.TestCase):
    def test_children_on_the_same_lane_are_subtracted_once(self):
        spans = [
            span((1, 0), "cell_attempt", "sweep", 0.0, 10.0),
            span((1, 0), "trial", "core", 1.0, 4.0),
            span((1, 0), "trial", "core", 4.0, 7.0),
            span((1, 0), "checkpoint_write", "io", 8.0, 8.5),
        ]
        self.assertEqual(assign_parents(spans), [None, 0, 0, 0])
        self.assertAlmostEqual(self_times(spans)[0], 10.0 - 6.5)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            span((1, 0), "run", "sweep", 0.0, 10.0),
            span((1, 0), "cell_attempt", "sweep", 2.0, 8.0),
            span((1, 0), "trial", "core", 3.0, 5.0),
        ]
        self.assertEqual(self_times(spans), [4.0, 4.0, 2.0])

    def test_team_threads_belong_to_the_one_open_cell_of_their_process(self):
        spans = [
            span((1, "compute"), "cell_attempt", "sweep", 0.0, 10.0),
            span((1, "team1"), "trial", "core", 1.0, 6.0),
            span((1, "team2"), "trial", "core", 2.0, 9.0),
            span((2, "other"), "cell_attempt", "sweep", 0.0, 10.0),  # another process
        ]
        self.assertEqual(assign_parents(spans), [None, 0, 0, None])
        # Parallel children overlap: the union (1..9) is subtracted once.
        self.assertAlmostEqual(self_times(spans)[0], 2.0)

    def test_ambiguous_cross_lane_parent_is_left_unassigned(self):
        spans = [
            span((1, "a"), "cell_attempt", "sweep", 0.0, 10.0),
            span((1, "b"), "cell_attempt", "sweep", 0.0, 10.0),
            span((1, "c"), "trial", "core", 2.0, 3.0),
        ]
        self.assertIsNone(assign_parents(spans)[2])

    def test_the_smaller_cross_lane_container_wins(self):
        spans = [
            span((1, "life"), "worker", "service", 0.0, 20.0),
            span((1, "compute"), "cell_attempt", "sweep", 5.0, 10.0),
            span((1, "team"), "trial", "core", 6.0, 7.0),
        ]
        self.assertEqual(assign_parents(spans), [None, 0, 1])
        self.assertEqual(self_times(spans), [15.0, 4.0, 1.0])


class WallAttribution(unittest.TestCase):
    def test_parts_sum_to_the_window_and_priority_decides_overlaps(self):
        spans = [
            span((1, 0), "sweep.run_sweep", "sweep", 1.0, 9.0),
            span((1, 1), "trial", "core", 2.0, 5.0),
            span((1, 2), "checkpoint_write", "io", 4.0, 6.0),
        ]
        by_layer, unattributed = attribute_wall(spans, 0.0, 10.0)
        self.assertAlmostEqual(by_layer["core"], 3.0)
        self.assertAlmostEqual(by_layer["io"], 1.0)    # 5..6; 4..5 goes to core
        self.assertAlmostEqual(by_layer["sweep"], 4.0)  # 1..2 and 6..9
        self.assertAlmostEqual(unattributed, 2.0)       # 0..1 and 9..10
        self.assertAlmostEqual(sum(by_layer.values()) + unattributed, 10.0)

    def test_spans_are_clipped_to_the_window(self):
        spans = [span((1, 0), "worker", "service", -5.0, 3.0)]
        by_layer, unattributed = attribute_wall(spans, 0.0, 4.0)
        self.assertAlmostEqual(by_layer["service"], 3.0)
        self.assertAlmostEqual(unattributed, 1.0)


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        samples = [float(i) for i in range(1, 1001)]  # p99 = 990, ten samples above it
        self.assertEqual(tail_percentile(samples), (990.0, True))

    def test_too_few_samples_report_the_max(self):
        samples = [float(i) for i in range(1, 500)]
        self.assertEqual(tail_percentile(samples), (499.0, False))

    def test_ties_at_the_quantile_do_not_count_as_beyond(self):
        samples = [1.0] * 2000
        self.assertEqual(tail_percentile(samples), (1.0, False))

    def test_empty(self):
        self.assertEqual(tail_percentile([]), (0.0, False))


class Ratios(unittest.TestCase):
    def test_failed_ratio(self):
        self.assertEqual(failed_ratio(48, 0), 0.0)
        self.assertEqual(failed_ratio(48, 24), 0.5)
        self.assertEqual(failed_ratio(0, 0), 1.0)  # nothing attempted is a failed run


if __name__ == "__main__":
    unittest.main()
