"""Self-tests for the benchmark's own metric code.

Run from the root of a checkout:

    python3 perfbench/test_run.py
"""

import json
import math
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(run.HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def fake_run(epochs, iterations=360, wall=4.0, **extra):
    out = {
        "ok": True,
        "iterations": iterations,
        "planned_updates": 360,
        "batch_size": 16,
        "train_wall_s": wall,
        "setup_s": 0.012,
        "epochs": epochs,
        "staleness_mean": 1.0,
        "staleness_p99": 2,
        "peak_rss_kib": 20480,
    }
    out.update(extra)
    return out


CURVE = [[0.5, 0.45, 2.0], [1.0, 0.15, 1.3], [1.5, 0.05, 0.7]]


class Tail(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 1000 samples: rank 990 leaves exactly 10 beyond, so p99 qualifies.
        self.assertEqual(run.tail(range(1, 1001)), (990, 99.0, 1000))
        # 999 samples: p99's rank is 990, leaving 9; p95 is the highest.
        self.assertEqual(run.tail(range(1, 1000)), (950, 95.0, 999))
        # 10000 samples: p99.9 (rank 9990) is the highest with ten beyond.
        self.assertEqual(run.tail(range(1, 10001)), (9990, 99.9, 10000))

    def test_order_of_samples_does_not_matter(self):
        xs = list(range(1, 201))
        self.assertEqual(run.tail(reversed(xs)), run.tail(xs))
        self.assertEqual(run.tail(xs), (190, 95.0, 200))

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(run.tail(range(1, 16)), (8, 50.0, 15))
        self.assertEqual(run.tail([]), (0.0, 0.0, 0))


class TimeToTarget(unittest.TestCase):
    def test_first_crossing_epoch(self):
        self.assertEqual(run.time_to_target(CURVE, 0.2), 1.0)
        self.assertEqual(run.time_to_target(CURVE, 0.15), 1.0)  # at, not only below
        self.assertEqual(run.time_to_target(CURVE, 0.5), 0.5)

    def test_never_reached_fails_the_check(self):
        self.assertIsNone(run.time_to_target(CURVE, 0.01))
        problems = run.check_run(fake_run(CURVE), 0.01)
        self.assertTrue(any("never reached" in p for p in problems), problems)
        self.assertEqual(run.check_run(fake_run(CURVE), 0.2), [])


class Checks(unittest.TestCase):
    def test_each_check(self):
        self.assertTrue(run.check_run({"ok": False, "error": "boom"}, 0.2))
        short = fake_run(CURVE, iterations=359)
        self.assertTrue(any("planned" in p for p in run.check_run(short, 0.2)))
        nan = fake_run([[0.5, 0.1, None], [1.0, 0.1, 0.5]])
        self.assertTrue(any("non-finite" in p for p in run.check_run(nan, 0.2)))
        chance = fake_run([[0.5, 0.1, 1.0], [1.0, 0.9, 2.3]])
        self.assertTrue(any("chance" in p for p in run.check_run(chance, 0.2)))


class Budget(unittest.TestCase):
    PROBE = {"forward_ms": 3.0, "backward_ms": 6.0, "evaluate_ms": 250.0,
             "loss_ms": 0.5, "step_ms": 1.5}

    def test_split_and_remainder(self):
        b = run.budget(self.PROBE, 360, 6, 5.0)
        self.assertAlmostEqual(b["budget.compute_s"], 3.24)
        self.assertAlmostEqual(b["budget.eval_s"], 1.5)
        self.assertAlmostEqual(b["budget.predictor_s"], 0.72)
        self.assertAlmostEqual(b["budget.unattributed_frac"], 1 - 5.46 / 5.0)

    def test_overlapping_bars_leave_a_negative_remainder(self):
        b = run.budget(self.PROBE, 360, 6, 4.0)
        self.assertAlmostEqual(b["budget.unattributed_frac"], 1 - 5.46 / 4.0)
        self.assertLess(b["budget.unattributed_frac"], 0)


class Metrics(unittest.TestCase):
    def test_end_to_end_names_and_values(self):
        w = {"target_error": 0.2}
        runs = [fake_run(CURVE, wall=w_s) for w_s in (4.0, 5.0, 6.0)]
        m = run.end_to_end(runs, w)
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertAlmostEqual(m["samples_per_s"], 360 * 16 / 5.0)
        self.assertEqual(m["time_to_target_s"], 1.0)
        self.assertAlmostEqual(m["final_train_loss"], 0.7)
        self.assertEqual(m["setup_s"], 0.012)
        self.assertEqual(m["peak_rss_mb"], 20.0)

    def test_per_layer_names(self):
        probe = dict(Budget.PROBE, apply_ms=0.004, pack_ms=0.1, unpack_ms=0.05,
                     compress_ms=0.1, generate_ms=12.0)
        traced = fake_run(
            CURVE,
            wall=4.4,
            phases={p: 1.0 for p in run.TRACE_PHASES},
            coalesce_n=0,
            handler_s=[1e-4] * 30,
            request_wait_s=[1e-3] * 20,
            startup_s=1e-3,
            run_s=4.4,
        )
        plain = fake_run(CURVE, loss_ms_per_update=0.5, step_ms_per_update=1.5)
        m = run.per_layer([plain], [traced], probe)
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertAlmostEqual(m["trace.overhead_frac"], 1 - 4.0 / 4.4)
        self.assertAlmostEqual(m["worker.wait_frac"], 2.0 / 3.0)
        # The simulator has no traced run: its traced-run metrics are 0.
        m = run.per_layer([plain], [], probe)
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertEqual(m["server.handler_n"], 0)
        self.assertEqual(m["trace.overhead_frac"], 0.0)


class FailureAccounting(unittest.TestCase):
    """Child processes are stand-in Python scripts."""

    def runner(self):
        return run.Runner(sys.executable, run.time.monotonic(), 10)

    def test_result_line_is_parsed(self):
        r = self.runner()
        self.assertEqual(r.child(["-c", "print('noise'); print('{\"a\": 1}')"], 30), {"a": 1})
        self.assertEqual((r.attempted, r.failed, r.incorrect), (1, 0, 0))

    def test_crash_is_failed_and_incorrect(self):
        r = self.runner()
        self.assertIsNone(r.child(["-c", "import sys; sys.exit(101)"], 30))
        self.assertEqual((r.attempted, r.failed, r.incorrect), (1, 1, 1))
        self.assertIsNone(r.child(["-c", "print('not json')"], 30))
        self.assertEqual((r.attempted, r.failed, r.incorrect), (2, 2, 2))

    def test_missed_deadline_is_failed_but_not_incorrect(self):
        r = self.runner()
        t0 = run.time.monotonic()
        self.assertIsNone(r.child(["-c", "import time; time.sleep(30)"], 0.5))
        self.assertLess(run.time.monotonic() - t0, 10)
        self.assertEqual((r.attempted, r.failed, r.incorrect), (1, 1, 0))


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK) as f:
            self.text = f.read()
        self.doc = json.loads(self.text)
        with open(run.WORKLOADS) as f:
            self.workloads = json.load(f)["workloads"]

    def test_round_trip(self):
        self.assertEqual(json.dumps(self.doc, indent=2) + "\n", self.text)
        self.assertEqual(json.loads(json.dumps(self.doc)), self.doc)

    def test_contract_shape(self):
        d = self.doc
        self.assertEqual(
            set(d), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)
        self.assertTrue(1 <= len(d["command"]) <= 32)
        for arg in d["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(d["paths"]) <= 16)
        for p in d["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertIsInstance(d["run_seconds"], int)
        self.assertTrue(1 <= d["run_seconds"] <= 60)
        names = []
        for w in d["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertTrue(2 <= len(d["workloads"]) <= 8)
        for m in d["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in d["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in d["end_to_end"] + d["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        setup = [m for m in self.doc["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_matches_the_code(self):
        d = self.doc
        self.assertEqual({m["name"]: m["unit"] for m in d["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in d["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in d["workloads"]], list(self.workloads))
        for w in d["workloads"]:
            self.assertEqual(w["why"], self.workloads[w["name"]]["why"])


class Seeds(unittest.TestCase):
    def test_sub_seeds_are_distinct_and_repeatable(self):
        seeds = [run.sub_seed(2020, i) for i in range(8)]
        self.assertEqual(len(set(seeds)), 8)
        self.assertEqual(seeds, [run.sub_seed(2020, i) for i in range(8)])
        self.assertLess(run.sub_seed(2 ** 64, 3), 2 ** 63)

    def test_rep_count_has_a_floor(self):
        self.assertEqual(run.rep_count(1, 5.0), run.MIN_REPS)
        self.assertEqual(run.rep_count(30, 5.0), 6)


if __name__ == "__main__":
    unittest.main()
