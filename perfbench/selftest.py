"""Self-tests of the benchmark's own code (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAMES = [f"app{i}" for i in range(59)]
NODES = [f"node{i:02d}" for i in range(16)]
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class GeneratorTests(unittest.TestCase):
    def test_sweep_order_deterministic_and_seeded(self):
        self.assertEqual(
            inputs.sweep_order(3, 0, NAMES), inputs.sweep_order(3, 0, NAMES)
        )
        self.assertNotEqual(
            inputs.sweep_order(3, 0, NAMES), inputs.sweep_order(4, 0, NAMES)
        )
        hps, bes = inputs.sweep_order(3, 1, NAMES)
        self.assertEqual(sorted(hps), sorted(NAMES))
        self.assertEqual(sorted(bes), sorted(NAMES))

    def test_latin_rounds_cover_every_pair_once(self):
        apps = NAMES[:6]
        rounds = inputs.latin_rounds(7, 0, apps)
        self.assertEqual(rounds, inputs.latin_rounds(7, 0, apps))
        self.assertNotEqual(rounds, inputs.latin_rounds(8, 0, apps))
        self.assertNotEqual(rounds, inputs.latin_rounds(7, 1, apps))
        self.assertEqual(len(rounds), len(apps))
        for pairs in rounds:
            self.assertEqual(sorted(hp for hp, _ in pairs), sorted(apps))
            self.assertEqual(sorted(be for _, be in pairs), sorted(apps))
        every = [pair for pairs in rounds for pair in pairs]
        self.assertEqual(sorted(every), sorted((h, b) for h in apps for b in apps))

    def test_base_stream_deterministic_and_seeded(self):
        stream = inputs.base_stream(5, 400)
        self.assertEqual(stream, inputs.base_stream(5, 400))
        self.assertNotEqual(stream, inputs.base_stream(6, 400))
        self.assertEqual(len(stream), inputs.FILL_JOBS + 400)
        self.assertTrue(
            all(e["kind"] == "submit" for e in stream[: inputs.FILL_JOBS])
        )
        outstanding = set()
        for event in stream:
            if event["kind"] == "submit":
                self.assertNotIn(event["job_id"], outstanding)
                outstanding.add(event["job_id"])
            else:
                outstanding.remove(event["job_id"])
            self.assertLessEqual(len(outstanding), inputs.FILL_JOBS + 1)
        self.assertEqual(len(outstanding), inputs.FILL_JOBS)

    def test_weave_faults_deterministic_seeded_and_closed(self):
        base = inputs.base_stream(5, 2000)
        woven = inputs.weave_faults(5, base, NODES)
        self.assertEqual(woven, inputs.weave_faults(5, base, NODES))
        self.assertNotEqual(woven, inputs.weave_faults(6, base, NODES))
        # The base stream survives in order; only faults are added.
        self.assertEqual(
            [e for e in woven if e["kind"] in ("submit", "depart")], base
        )
        self.assertEqual(woven[: inputs.FILL_JOBS], base[: inputs.FILL_JOBS])
        down: set[str] = set()
        faults = 0
        for event in woven:
            kind = event["kind"]
            if kind in inputs.NODE_FAULTS:
                self.assertNotIn(event["node_id"], down)
                down.add(event["node_id"])
                faults += 2
            elif kind == "node_recover":
                down.remove(event["node_id"])
            elif kind == "assign_fault":
                self.assertNotIn(event["node_id"], down)
                faults += 1
        self.assertEqual(down, set())
        self.assertEqual(woven[-1], base[-1])
        self.assertTrue(0.03 < faults / len(woven) < 0.07, faults / len(woven))


class SpanTests(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        # 0: root [0, 10]
        #    1: child [1, 4]  (2: grandchild [2, 3])
        #    3: child [3.5, 6] overlapping child 1 by 0.5
        #    4: child [9, 12] sticking out of the root by 2
        # 5: second root [20, 21]
        start = [0.0, 1.0, 2.0, 3.5, 9.0, 20.0]
        end = [10.0, 4.0, 3.0, 6.0, 12.0, 21.0]
        parent = [-1, 0, 1, 0, 0, -1]
        got = tracing.self_times(start, end, parent)
        # Root: 10 minus the union [1, 6] and the clipped [9, 10].
        want = [10 - 5 - 1, 3 - 1, 1, 2.5, 3, 1]
        for g, w in zip(got, want):
            self.assertTrue(math.isclose(g, w), (list(got), want))

    def test_tracer_nesting_and_requests(self):
        tracer = tracing.Tracer()
        tracer.current_request = 7
        outer = tracer.open("a")
        inner = tracer.open("b")
        tracer.close(inner, value=3.0)
        tracer.close(outer)
        cols = tracer.arrays()
        self.assertEqual(list(cols["parent"]), [-1, 0])
        self.assertEqual(list(cols["request"]), [7, 7])
        self.assertEqual(list(cols["value"]), [0.0, 3.0])
        self.assertTrue((cols["end"] >= cols["start"]).all())
        selfs = tracing.self_times(cols["start"], cols["end"], cols["parent"])
        self.assertAlmostEqual(
            selfs.sum(), cols["end"][0] - cols["start"][0], places=12
        )


class MetricNameTests(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(e2e, list(run.END_TO_END))
        self.assertEqual(layer, list(tracing.LAYER_METRICS))
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES)
        )
        names = [n for n, _ in e2e] + [n for n, _u, _b in layer]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(METRIC_NAME.fullmatch(name), name)


if __name__ == "__main__":
    unittest.main()
