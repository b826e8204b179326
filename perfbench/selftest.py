"""Self-tests of the benchmark's helpers.

Run with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  They need no ``repro``
import: the helpers under test are pure.
"""

from __future__ import annotations

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import job_gaps, median, percentile, quartiles, ratio  # noqa: E402
from tracing import Span, Tracer, self_times, subtree_self_residuals  # noqa: E402


def _span(name: str, start: float, end: float, parent: int = -1) -> Span:
    span = Span(name, start, parent, trace=0)
    span.end = end
    return span


class PercentileTests(unittest.TestCase):
    def test_empty_input_is_not_a_number(self) -> None:
        self.assertTrue(math.isnan(percentile([], 0.5)))
        self.assertTrue(math.isnan(median([])))

    def test_single_sample_is_every_percentile(self) -> None:
        for fraction in (0.0, 0.5, 0.9, 1.0):
            self.assertEqual(percentile([7.5], fraction), 7.5)

    def test_interpolates_between_neighbours(self) -> None:
        values = [4.0, 1.0, 3.0, 2.0]  # order must not matter
        self.assertAlmostEqual(percentile(values, 0.5), 2.5)
        self.assertAlmostEqual(percentile(values, 0.9), 3.7)
        self.assertEqual(percentile(values, 0.0), 1.0)
        self.assertEqual(percentile(values, 1.0), 4.0)

    def test_exact_rank_needs_no_interpolation(self) -> None:
        self.assertEqual(percentile([10.0, 20.0, 30.0], 0.5), 20.0)

    def test_rejects_fractions_outside_the_unit_interval(self) -> None:
        with self.assertRaises(ValueError):
            percentile([1.0], 1.5)

    def test_quartiles_match_the_statistics_module(self) -> None:
        values = [3.0, 9.0, 1.0, 7.0, 5.0, 11.0, 2.0]
        self.assertEqual(quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_ratio_of_nothing_is_zero(self) -> None:
        self.assertEqual(ratio(5, 0), 0.0)
        self.assertEqual(ratio(3, 4), 0.75)


class SelfTimeTests(unittest.TestCase):
    def test_sequential_children_are_subtracted(self) -> None:
        spans = [
            _span("step", 0.0, 10.0),
            _span("draw", 1.0, 4.0, parent=0),
            _span("submit", 2.0, 3.0, parent=1),
            _span("process", 5.0, 7.0, parent=0),
        ]
        self.assertEqual(self_times(spans), [5.0, 2.0, 1.0, 2.0])
        self.assertEqual(subtree_self_residuals(spans, "step"), [0.0])

    def test_overlapping_children_are_counted_once(self) -> None:
        spans = [
            _span("parent", 0.0, 10.0),
            _span("a", 1.0, 5.0, parent=0),
            _span("b", 3.0, 6.0, parent=0),
        ]
        self.assertEqual(self_times(spans)[0], 5.0)
        # The subtree double-counts [3, 5): the step check must notice.
        self.assertEqual(subtree_self_residuals(spans, "parent"), [2.0])

    def test_child_escaping_its_parent_is_clipped(self) -> None:
        spans = [_span("parent", 0.0, 4.0), _span("child", 3.0, 6.0, parent=0)]
        self.assertEqual(self_times(spans)[0], 3.0)
        self.assertEqual(subtree_self_residuals(spans, "parent"), [2.0])

    def test_unclosed_span_is_an_error(self) -> None:
        span = Span("open", 0.0, -1, trace=0)
        with self.assertRaises(ValueError):
            self_times([span])


class TracerTests(unittest.TestCase):
    def setUp(self) -> None:
        ticks = iter(range(100))
        self.tracer = Tracer(clock=lambda: float(next(ticks)))

    def test_nested_spans_link_parents_and_share_a_trace(self) -> None:
        with self.tracer.span("step", new_trace=True):
            with self.tracer.span("submit"):
                pass
        with self.tracer.span("step", new_trace=True):
            pass
        first, child, second = self.tracer.spans
        self.assertEqual((first.parent, child.parent, second.parent), (-1, 0, -1))
        self.assertEqual(first.trace, child.trace)
        self.assertNotEqual(first.trace, second.trace)
        self.assertEqual((first.start, child.start, child.end, first.end), (0.0, 1.0, 2.0, 3.0))

    def test_wrap_traces_one_instance_and_unwrap_restores_it(self) -> None:
        class Backend:
            def submit(self, query: int) -> int:
                return query * 2

        traced, untouched = Backend(), Backend()
        self.tracer.wrap(traced, "submit", "engine.submit")
        self.assertEqual(traced.submit(4), 8)
        self.assertEqual(untouched.submit(4), 8)
        self.assertEqual([span.name for span in self.tracer.spans], ["engine.submit"])
        self.tracer.unwrap_all()
        self.assertNotIn("submit", vars(traced))
        traced.submit(1)
        self.assertEqual(len(self.tracer.spans), 1)

    def test_unwrap_restores_an_instance_attribute(self) -> None:
        class Holder:
            pass

        holder = Holder()
        original = lambda: "original"  # noqa: E731
        holder.call = original
        self.tracer.wrap(holder, "call", "x")
        self.assertEqual(holder.call(), "original")
        self.tracer.unwrap_all()
        self.assertIs(holder.call, original)

    def test_span_closes_when_the_call_raises(self) -> None:
        with self.assertRaises(RuntimeError):
            with self.tracer.span("failing"):
                raise RuntimeError("boom")
        self.assertIsNotNone(self.tracer.spans[0].end)
        with self.tracer.span("next"):
            pass
        self.assertEqual(self.tracer.spans[1].parent, -1)


class GapTests(unittest.TestCase):
    def test_gaps_follow_each_job_across_interleaving(self) -> None:
        events = [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 5.0), ("a", 3.5)]
        gaps = job_gaps(events, {"a": 0.0, "b": 0.5})
        self.assertEqual(gaps, [1.0, 2.0, 0.5, 1.5, 3.0])

    def test_job_without_samples_contributes_no_gap(self) -> None:
        self.assertEqual(job_gaps([("a", 2.0)], {"a": 1.0, "idle": 0.0}), [1.0])

    def test_no_events_means_no_gaps(self) -> None:
        self.assertEqual(job_gaps([], {"a": 0.0}), [])


if __name__ == "__main__":
    unittest.main()
