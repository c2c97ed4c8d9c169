#!/usr/bin/env python3
"""Tests of the benchmark itself (no build needed):

    python3 perfbench/test_bench.py
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import validate  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
DOC = load(os.path.join(HERE, "metrics.json"))


class SeededInputs(unittest.TestCase):
    def test_serve_schedule_follows_seed(self):
        a = inputs.serve_storm(7, 12)
        self.assertEqual(a, inputs.serve_storm(7, 12))
        self.assertNotEqual(a, inputs.serve_storm(8, 12))
        self.assertNotEqual(a["fixed"], inputs.serve_storm(8, 12)["fixed"])

    def test_sampling_plans_follow_seed(self):
        a = inputs.sampled_sweep(7)
        self.assertEqual(a, inputs.sampled_sweep(7))
        self.assertNotEqual(a["phases"], inputs.sampled_sweep(8)["phases"])

    def test_other_workloads_follow_seed(self):
        tp = inputs.load_throughput(ROOT)
        self.assertEqual(inputs.detailed_sweep(3, tp),
                         inputs.detailed_sweep(3, tp))
        self.assertNotEqual(inputs.detailed_sweep(3, tp)["order"],
                            inputs.detailed_sweep(4, tp)["order"])
        self.assertNotEqual(inputs.fuzz_campaign(3),
                            inputs.fuzz_campaign(4))

    def test_fuzz_campaign_is_fixed(self):
        # A fixed first seed and budget: every run does one campaign.
        a, b = inputs.fuzz_campaign(3), inputs.fuzz_campaign(4)
        self.assertEqual((a["first_seed"], a["seeds"]),
                         (b["first_seed"], b["seeds"]))

    def test_arrivals_are_ordered_and_in_phase(self):
        s = inputs.serve_storm(1, 12)
        for phase in s["fixed"] + s["steps"]:
            times = [t for t, _ in phase["arrivals"]]
            self.assertEqual(times, sorted(times))
            self.assertTrue(all(0 <= t for t in times))
            kinds = {k for _, k in phase["arrivals"]}
            self.assertTrue(kinds <= set(range(len(s["kinds"]))))


class ResultChecks(unittest.TestCase):
    PAIRS = [[22971, 48260], [95187, 32209]]

    def result(self, **kw):
        r = {"pairs": self.PAIRS, "checksum": validate.checksum(self.PAIRS)}
        r.update(kw)
        return r

    def test_honest_checksum_passes(self):
        self.assertEqual(validate.check_result(self.result()), ([], 0))

    def test_forged_checksum_is_rejected(self):
        problems, _ = validate.check_result(
            self.result(checksum="0123456789abcdef"))
        self.assertEqual(len(problems), 1)
        forged = [[22971, 48260], [95187, 32210]]
        problems, _ = validate.check_result(self.result(pairs=forged))
        self.assertEqual(len(problems), 1)

    def serve(self, line, expected=10000, checked=True, rid=5):
        return {"id": rid, "expected_retired": expected, "checked": checked,
                "response": line}

    def test_ok_with_zero_retired_is_rejected(self):
        line = ('{"id": 5, "status": "ok", "workload": "mcf", "retired": 0, '
                '"cycles": 0, "halted": true}')
        # Even when the direct run agrees on 0, it is not a result.
        self.assertIsNotNone(validate.check_serve_response(
            self.serve(line, expected=0)))
        problems, attempted = validate.check_result(
            self.result(serve_responses=[self.serve(line, expected=0)]))
        self.assertEqual((len(problems), attempted), (1, 1))

    def test_serve_response_must_match_id_status_and_direct_run(self):
        good = ('{"id": 5, "status": "ok", "retired": 10000, '
                '"cycles": 7000, "halted": false}')
        self.assertIsNone(validate.check_serve_response(self.serve(good)))
        self.assertIsNotNone(validate.check_serve_response(
            self.serve(good, rid=6)))
        self.assertIsNotNone(validate.check_serve_response(
            self.serve(good, expected=9999)))
        refused = '{"id": 5, "status": "overloaded", "error": "full"}'
        self.assertIsNotNone(validate.check_serve_response(
            self.serve(refused)))
        # A rate-search probe may be refused, never answered wrongly.
        self.assertIsNone(validate.check_serve_response(
            self.serve(refused, checked=False)))
        self.assertIsNotNone(validate.check_serve_response(
            self.serve(good, expected=1, checked=False)))
        self.assertIsNotNone(validate.check_serve_response(
            self.serve("")))


class Contract(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in
                                               BENCH["end_to_end"])}])
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_metric_names_and_units(self):
        names = ([w["name"] for w in BENCH["workloads"]] +
                 [m["name"] for m in BENCH["end_to_end"]] +
                 [m["name"] for m in BENCH["per_layer"]] +
                 list(DOC["detail"]))
        for n in names:
            self.assertRegex(n, NAME_RE)
        listed = names[:-len(DOC["detail"])]
        self.assertEqual(len(listed), len(set(listed)))
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_workloads_are_documented(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(DOC["workloads"]))
        for w in DOC["workloads"].values():
            for key in ("why", "threads", "connections", "seed", "checks"):
                self.assertIn(key, w)

    def test_every_layer_metric_names_its_target(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        workloads = set(DOC["workloads"]) | {"all"}
        for m in BENCH["per_layer"]:
            doc = DOC["per_layer"].get(m["name"])
            self.assertIsNotNone(doc, m["name"])
            targets = doc.get("moves", []) + doc.get("no_change", [])
            self.assertTrue(targets, m["name"])
            for metric, workload in targets:
                self.assertIn(metric, e2e, m["name"])
                self.assertIn(workload, workloads, m["name"])
        self.assertEqual(set(DOC["per_layer"]),
                         {m["name"] for m in BENCH["per_layer"]})

    def test_detail_figures_name_their_workload(self):
        for name, doc in DOC["detail"].items():
            self.assertIn(doc["workload"], set(DOC["workloads"]) | {"all"},
                          name)


if __name__ == "__main__":
    unittest.main()
