"""Self-test of the benchmark harness: its arithmetic, its trace and a tiny run of each workload.

    python3 volbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import unittest

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import bench  # noqa: E402
from gauge import Gauge  # noqa: E402
from layertrace import LAYER_METRICS, Span, Tracer, layer_metrics  # noqa: E402
from stats import Ledger, beyond_count, self_times, tail_percentile  # noqa: E402
from workloads import SMALL_MODEL, WORKLOADS  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(list(range(99)), 90))
        self.assertEqual(beyond_count(99, 90), 9)
        self.assertEqual(beyond_count(100, 90), 10)
        self.assertEqual(tail_percentile(list(range(100)), 90), 89.0)

    def test_nearest_rank_ignores_input_order(self):
        samples = [float(x) for x in range(200, 0, -1)]
        self.assertEqual(tail_percentile(samples, 90), 180.0)
        self.assertEqual(beyond_count(200, 90), 20)


class SelfTime(unittest.TestCase):
    def test_nested_synthetic_spans(self):
        spans = [
            Span("root", 0.0, 10.0, None, "r"),
            Span("a", 1.0, 4.0, 0, "r"),
            Span("b", 3.0, 6.0, 0, "r"),  # overlaps a: the union counts once
            Span("a.child", 2.0, 3.0, 1, "r"),
            Span("late", 9.0, 12.0, 0, "r"),  # only its part inside root is covered
        ]
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_self_times_sum_to_root_duration(self):
        tracer = Tracer()
        with tracer.span("outer"):
            for _ in range(3):
                with tracer.span("inner"):
                    with tracer.span("leaf"):
                        sum(range(1000))
        root = tracer.spans[0]
        self.assertAlmostEqual(sum(self_times(tracer.spans)), root.end - root.start, places=12)
        self.assertEqual([s.parent for s in tracer.spans], [None, 0, 1, 0, 3, 0, 5])


class HostSpeed(unittest.TestCase):
    def test_interval_divided_by_the_marks_around_it(self):
        g = Gauge()
        g.times = [0.0, 1.0, 2.0, 10.0, 11.0]
        g.factors = [1.0, 2.0, 4.0, 8.0, 8.0]
        # last mark before 1.5 is at 1.0, first after 2.5 at 10.0: factor (2 + 8) / 2
        self.assertAlmostEqual(g.seconds((1.5, 2.5)), 1.0 / 5.0)
        # marks further out do not count
        self.assertAlmostEqual(g.seconds((10.2, 10.7)), 0.5 / 8.0)
        self.assertAlmostEqual(g.seconds((0.5, 1.5)), 1.0 / 2.5)

    def test_marks_bracket_each_measurement(self):
        g = Gauge()
        out, (start, end) = g.measure(sum, [1, 2, 3])
        self.assertEqual(out, 6)
        self.assertEqual(len(g.factors), 2)
        self.assertTrue(g.times[0] <= start <= end <= g.times[1])


class ErrorRate(unittest.TestCase):
    def test_counts_injected_failures(self):
        ledger = Ledger()
        ledger.call("ok", lambda: 1)
        ledger.call("boom", _raise, count=3)
        ledger.check(False, "bad output")
        ledger.check(True, "good output")
        self.assertEqual((ledger.attempted, ledger.failed), (6, 4))
        self.assertAlmostEqual(ledger.error_rate, 4 / 6)
        self.assertEqual(len(ledger.failures), 2)

    def test_failed_request_reaches_the_result(self):
        original = bench.score_request
        calls = []

        def flaky(*args):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("injected")
            return original(*args)

        bench.score_request = flaky
        try:
            result = _run(_tiny(WORKLOADS["small"]), traced=False)
        finally:
            bench.score_request = original
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        rate = result["metrics"]["success_rate"]["value"]
        self.assertAlmostEqual(rate, 1.0 - 1.0 / result["attempted"])

    def test_failed_training_reaches_the_result(self):
        original = bench.train

        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        bench.train = broken
        try:
            result = _run(_tiny(WORKLOADS["small"]), traced=False)
        finally:
            bench.train = original
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})
        # one set-up succeeded; every train step of the one training failed
        self.assertEqual(result["failed"], result["attempted"] - 1)
        self.assertGreater(result["failed"], 1)


class Smoke(unittest.TestCase):
    def test_each_workload_untraced(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                result = _run(_tiny(workload), traced=False)
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), [n for n, _ in bench.END_TO_END])
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run(self):
        import volgraph.dialogue as dialogue

        before = dialogue.featurize_sentences
        result = _run(_tiny(WORKLOADS["long-calls"]), traced=True)
        self.assertIs(dialogue.featurize_sentences, before)  # wrappers removed
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [m.name for m in LAYER_METRICS])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(values["numcore.tape_nodes"], 0)
        self.assertGreater(values["dialogue.transformer_s.grad"], 0)

    def test_layer_metrics_cover_the_table(self):
        self.assertEqual(
            set(layer_metrics(Tracer()))
            | {"val_mse", "test_r2", "trace.overhead_train", "trace.overhead_score"},
            {m.name for m in LAYER_METRICS},
        )


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_harness(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(bench.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(m.name, m.unit, m.better) for m in LAYER_METRICS],
        )


def _raise():
    raise RuntimeError("injected")


def _tiny(workload):
    corpus = dict(workload.corpus, n_companies=4)
    return dataclasses.replace(
        workload,
        corpus=corpus,
        model=SMALL_MODEL,
        setup_repeats=1,
        text_lengths=None if workload.text_lengths is None else (5, 12),
    )


def _run(workload, traced: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return bench.run(workload, 3, 0.0, traced, Ledger())


if __name__ == "__main__":
    unittest.main()
