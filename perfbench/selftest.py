"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py

They run the small copies of the workloads in child processes, as run.py
does, and take well under a minute.
"""

import json
import math
import os
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import check  # noqa: E402
import run  # noqa: E402
from tracer import load_all, self_times  # noqa: E402
from workloads import WORKLOADS, sweep_seed  # noqa: E402


def _tree_bytes(root: str) -> dict[str, bytes]:
    files = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


class TracedRuns(unittest.TestCase):
    """Traced runs of the small workloads, kept on disk for inspection."""

    @classmethod
    def setUpClass(cls):
        run.warm_up()
        os.makedirs(run.WORK, exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.WORK, prefix="selftest-")
        cls.outs = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                out = os.path.join(cls.tmp.name, f"{name}-{trace}")
                os.makedirs(out)
                run.run_child(name, sweep_seed(3, 0), trace, shrink=True, keep=out)
                cls.outs[name, trace] = out

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()
        os.rmdir(run.WORK)

    def test_traced_and_untraced_outputs_are_byte_identical(self):
        for name in WORKLOADS:
            plain = _tree_bytes(os.path.join(self.outs[name, 0], "sweep"))
            traced = _tree_bytes(os.path.join(self.outs[name, 1], "sweep"))
            self.assertTrue(any(p.startswith("traces") for p in plain), name)
            self.assertEqual(plain, traced, name)

    def test_child_self_times_sum_to_each_cell_span(self):
        for name in WORKLOADS:
            spans, _ = load_all(os.path.join(self.outs[name, 1], "spans"))
            selfs = self_times(spans)
            children = {}
            for span in spans:
                children.setdefault(span[1], []).append(span)

            def subtree_self(sid):
                return selfs[sid] + sum(subtree_self(c[0]) for c in children.get(sid, []))

            cells = [s for s in spans if s[2] == "harness.run_cell"]
            self.assertEqual(len(cells), WORKLOADS[name].shrunk().cells, name)
            for sid, _parent, _name, start, end in cells:
                self.assertTrue(math.isclose(subtree_self(sid), (end - start) / 1e9,
                                             rel_tol=1e-9, abs_tol=1e-9), name)
                self.assertIn(sid, children, "a cell span has child spans")

    def test_worker_spans_link_to_the_sweep_span(self):
        spans, counters = load_all(os.path.join(self.outs["m2-sweep", 1], "spans"))
        by_id = {s[0]: s for s in spans}
        sweep = [s for s in spans if s[2] == "harness.run_sweep"]
        self.assertEqual(len(sweep), 1)
        cells = [s for s in spans if s[2] == "harness.run_cell"]
        if run.nproc() > 1:
            self.assertTrue(all(by_id[c[1]] is sweep[0] for c in cells))
            self.assertTrue(all(c[0].split(":")[0] != sweep[0][0].split(":")[0]
                                for c in cells), "cells ran in worker processes")
        self.assertGreater(counters["env.plays"], 0)


class ReferenceCheck(unittest.TestCase):
    def setUp(self):
        ref = run.load_reference()
        self.assertTrue(ref, "reference.jsonl holds recorded outputs")
        workload = sorted(ref)[0]
        self.ref = ref[workload][sorted(ref[workload])[0]]

    def test_unchanged_output_passes(self):
        self.assertEqual(check.compare(json.loads(json.dumps(self.ref)), self.ref), set())

    def test_perturbed_regret_fails(self):
        found = json.loads(json.dumps(self.ref))
        cell = sorted(found["cells"])[0]
        regret = float(found["cells"][cell][0])
        found["cells"][cell][0] = repr(math.nextafter(regret, math.inf))
        self.assertEqual(check.compare(found, self.ref), {cell})

    def test_changed_summary_fails_every_cell(self):
        found = json.loads(json.dumps(self.ref))
        found["summary_sha256"] = "0" * 64
        self.assertEqual(check.compare(found, self.ref), set(self.ref["cells"]))


class Seeds(unittest.TestCase):
    def test_workload_seeds_generate_different_instances(self):
        from rpbandits.harness import resolve_instance
        for wl in WORKLOADS.values():
            seeds = [sweep_seed(0, 0), sweep_seed(0, 1), sweep_seed(1, 0)]
            insts = [resolve_instance(wl.config(s)) for s in seeds]
            for i in range(len(insts)):
                for j in range(i):
                    self.assertFalse(
                        (insts[i].theta_star == insts[j].theta_star).all(), wl.name)
            again = resolve_instance(wl.config(seeds[0]))
            self.assertTrue((again.actions.vectors == insts[0].actions.vectors).all())
            self.assertNotEqual(wl.config(seeds[0])["master_seed"],
                                wl.config(seeds[2])["master_seed"])


class Spec(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        with open(run.SPEC) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(spec["paths"], [os.path.basename(BENCH)])
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertLessEqual(len(metric["name"]), 64)


if __name__ == "__main__":
    unittest.main(verbosity=2)
