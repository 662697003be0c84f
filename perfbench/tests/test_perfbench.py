"""Tests of the benchmark itself: input generation, checkers, metrics.

    python3 -m unittest discover -s perfbench/tests

They need no build: the checkers and metric assembly run on fabricated
driver output.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


class Generation(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for w in workloads.WORKLOADS:
            for trace in (False, True):
                a = workloads.encode(workloads.generate(w, 7, trace))
                b = workloads.encode(workloads.generate(w, 7, trace))
                self.assertEqual(a, b, w)

    def test_different_seeds_differ(self):
        for w in workloads.WORKLOADS:
            a = workloads.encode(workloads.generate(w, 1, False))
            b = workloads.encode(workloads.generate(w, 2, False))
            self.assertNotEqual(a, b, w)

    def test_unknown_workload_is_rejected(self):
        with self.assertRaises(ValueError):
            workloads.generate("nope", 1, False)

    def test_cold_blocks_keep_the_class_mix(self):
        body = workloads.generate("cold-bound", 3, False)["cold_bound"]
        want = sorted(s.split(":{s}")[0] for s, _ in workloads.COLD_BLOCK)
        for block in body["blocks"]:
            got = sorted(r["spec"].rsplit(":", 1)[0]
                         if r["spec"].startswith("er:") else r["spec"]
                         for r in block)
            self.assertEqual(got, want)
        self.assertGreaterEqual(
            body["min_blocks"] * len(workloads.COLD_BLOCK), 100)

    def test_stream_steps_never_fail(self):
        # Every removal removes a present edge, every addition adds an
        # absent edge u < v inside one component (the graph stays a DAG).
        for seed in (1, 2):
            body = workloads.generate("stream-patch", seed,
                                      False)["stream_patch"]
            n = workloads.STREAM_VERTICES
            edges = set(map(tuple, body["edges"]))
            removes = 0
            for step in body["steps"]:
                e = (step["u"], step["v"])
                self.assertEqual(e[0] // n, e[1] // n)
                self.assertLess(e[0], e[1])
                if step["op"] == "remove_edge":
                    self.assertIn(e, edges)
                    edges.remove(e)
                    removes += 1
                else:
                    self.assertNotIn(e, edges)
                    edges.add(e)
            share = removes / len(body["steps"])
            self.assertAlmostEqual(share, workloads.STREAM_REMOVE_SHARE,
                                   delta=0.05)
            self.assertLess(workloads.STREAM_COMPONENTS,
                            workloads.STREAM_MIN_EIGENVALUES)

    def test_serve_corpus_covers_every_method(self):
        body = workloads.generate("serve-batch", 5, False)["serve_batch"]
        jobs = [json.loads(line) for line in body["jobs"]]
        self.assertGreaterEqual(len(jobs), 200)
        self.assertEqual({m for j in jobs for m in j["methods"]},
                         set(workloads.SERVE_METHODS))
        self.assertTrue(any(j["spec"].startswith("multi:") for j in jobs))
        for order in body["orders"]:
            self.assertEqual(sorted(order), list(range(len(jobs))))


def cold_checks():
    return {"rows": [{"spec": "fft:6",
                      "rows": [[4, 10.0, 212.0], [8, 0.0, 136.0]]}],
            "restart_eigensolves": 0}


def stream_checks():
    return {"final": {"streamed": [[8, 500.0], [16, 110.0]],
                      "cold": [[8, 540.0], [16, 130.0]]},
            "removals": [{"step": 4, "streamed": [[8, 1.0], [16, 0.0]],
                          "cold": [[8, 1.0], [16, 0.0]]}],
            "restart_eigensolves": 0}


def serve_checks():
    lines = ['{"job":1,"report":{"a":1}}', '{"job":2,"report":{"b":2}}']
    return {"passes": [{"cold_lines": lines,
                        "restarts": [{"eigensolves": 0,
                                      "lines": lines[::-1]}]}]}


class Checkers(unittest.TestCase):
    def test_valid_outputs_pass(self):
        self.assertEqual(checks.check_cold_bound(cold_checks()), [])
        self.assertEqual(checks.check_stream_patch(stream_checks()), [])
        self.assertEqual(checks.check_serve_batch(serve_checks()), [])

    def test_cold_rejects_spectral_above_memsim(self):
        c = cold_checks()
        c["rows"][0]["rows"][1] = [8, 137.0, 136.0]
        self.assertEqual(len(checks.check_cold_bound(c)), 1)

    def test_cold_rejects_missing_memsim_row(self):
        c = cold_checks()
        c["rows"][0]["rows"][0][2] = None
        self.assertEqual(len(checks.check_cold_bound(c)), 1)

    def test_cold_rejects_restart_eigensolves(self):
        c = cold_checks()
        c["restart_eigensolves"] = 3
        self.assertEqual(len(checks.check_cold_bound(c)), 1)

    def test_stream_rejects_streamed_above_cold(self):
        c = stream_checks()
        c["final"]["streamed"][1] = [16, 131.0]
        self.assertEqual(len(checks.check_stream_patch(c)), 1)
        c = stream_checks()
        c["removals"][0]["streamed"][0] = [8, 1.5]
        self.assertEqual(len(checks.check_stream_patch(c)), 1)

    def test_stream_rejects_restart_eigensolves(self):
        c = stream_checks()
        c["restart_eigensolves"] = 2
        self.assertEqual(len(checks.check_stream_patch(c)), 1)

    def test_stream_tolerates_rounding_only(self):
        c = stream_checks()
        c["final"]["streamed"][0] = [8, 540.0 * (1 + 1e-13)]
        self.assertEqual(checks.check_stream_patch(c), [])

    def test_serve_rejects_mismatched_restart_line(self):
        c = serve_checks()
        c["passes"][0]["restarts"][0]["lines"][0] = \
            '{"job":2,"report":{"b":3}}'
        self.assertEqual(len(checks.check_serve_batch(c)), 1)

    def test_serve_rejects_missing_line_and_eigensolves(self):
        c = serve_checks()
        restart = c["passes"][0]["restarts"][0]
        restart["lines"].pop()
        restart["eigensolves"] = 1
        self.assertEqual(len(checks.check_serve_batch(c)), 2)

    def test_bound_gap(self):
        final = stream_checks()["final"]
        gap = checks.bound_gap(final["streamed"], final["cold"])
        self.assertAlmostEqual(gap, 1 - 110 / 130)
        self.assertEqual(checks.bound_gap([[8, 0.0]], [[8, 0.0]]), 0.0)


def fake_raw(workload):
    counters = {"trace.span_cost_s": 3e-7, "serve.jobs": 240,
                "serve.passes": 2, "serve.busy_s": 10.0,
                "serve.threads": 4, "stream.steps": 3}
    raw = {"ops": [0.1, 0.2, 0.3], "tail": [0.5, 0.6],
           "setup": [0.01, 0.02, 0.03], "restart": [0.004, 0.005],
           "measured": 3.0, "attempted": 3, "peak_rss_mb": 30.5,
           "spans": 4, "counters": counters, "errors": [],
           "checks": {"stream-patch": stream_checks()}.get(workload, {})}
    spans = [
        {"name": "step", "start": 0.0, "end": 1.0, "id": 1, "parent": 0,
         "request": 1},
        {"name": "stream.apply", "start": 0.0, "end": 0.2, "id": 2,
         "parent": 1, "request": 1},
        {"name": "stream.evaluate", "start": 0.2, "end": 0.9, "id": 3,
         "parent": 1, "request": 1},
        {"name": "la.lobpcg", "start": 0.2, "end": 0.7, "id": 4,
         "parent": 3, "request": 1},
    ]
    return raw, run.with_self_times(spans)


class Metrics(unittest.TestCase):
    def test_benchmark_json_names_match_emitted_metrics(self):
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_run_emits_every_metric(self):
        for w in workloads.WORKLOADS:
            raw, spans = fake_raw(w)
            values = run.end_to_end(w, copy.deepcopy(raw))
            self.assertEqual(set(values), set(run.END_TO_END), w)
            self.assertTrue(all(v > 0 for v in values.values()), w)
            layer, _ = run.per_layer(w, copy.deepcopy(raw), spans)
            self.assertEqual(set(layer), set(run.PER_LAYER), w)

    def test_self_times_subtract_children(self):
        raw, spans = fake_raw("stream-patch")
        layer, table = run.per_layer("stream-patch", raw, spans)
        self.assertAlmostEqual(table["stream.evaluate"]["self"], 0.2)
        self.assertAlmostEqual(layer["stream.step_unaccounted_s"], 0.1)
        self.assertAlmostEqual(layer["la.lobpcg_s"], 0.5 / 3)

    def test_median_of_means(self):
        # Groups are interleaved: [1, 3, 100], [2, 4], [3, 5].
        xs = [1, 2, 3, 3, 4, 5, 100]
        self.assertAlmostEqual(run.median_of_means(xs), 4.0)
        self.assertEqual(run.median_of_means([7.5]), 7.5)
        self.assertAlmostEqual(run.median_of_means([1, 2]), 1.5)

    def test_percentile(self):
        self.assertEqual(run.percentile([3, 1, 2], 0.5), 2)
        self.assertAlmostEqual(run.percentile(list(range(11)), 0.9), 9.0)
        self.assertAlmostEqual(run.percentile([0, 10], 0.95), 9.5)


if __name__ == "__main__":
    unittest.main()
