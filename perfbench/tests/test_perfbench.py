"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Engine, Query, base_table, bind, build_module, relabel  # noqa: E402

ENGINE = Engine()
REFERENCES = run.load_references()

TINY = [Query("cohomology", "C(1,2)", "Z/4", 2, 4),
        Query("cohomology", "C(0,2)", "ZM/2", 1, 2),
        Query("brute_force", "C(0,2)", "Z/2", 2, 3),
        Query("cli", "C(1,2)", "cohomology --monoid MONOID --level 2 --degree 4 --coeff Z/4")]


FRONTENDS = [Query("verify_contraction", 0, 2, 2),
             Query("grillet", "C(0,2)", "Z/2", 1),
             Query("injectivity", "C(0,2)", "Z/2"),
             Query("iso_classes", "C(0,2)", "Z/2"),
             Query("cli", "-", "cyclic groups --index 1 --period 2 --coeff Z/4")]


class FakeClock:
    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


class SelfTimeTest(unittest.TestCase):

    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] (holding c [2, 3]) and b [5, 8]
        tr = tracing.Tracer(FakeClock([0, 1, 2, 3, 4, 5, 8, 10]))
        tr.enter("a")
        tr.enter("b")
        tr.enter("c")
        tr.exit()
        tr.exit()
        tr.enter("b")
        tr.exit()
        tr.exit()
        self.assertEqual(tr.self_time, {"a": 4, "b": 5, "c": 1})
        self.assertEqual(tr.calls, {"a": 1, "b": 2, "c": 1})
        self.assertEqual(tracing.attributed(tr), 10)

    def test_bookkeeping_is_not_charged_to_the_parent(self):
        # a [0, 10] holds b [1, 3]; counting b's result takes [3, 5]
        tr = tracing.Tracer(FakeClock([0, 1, 3, 5, 10]))
        tr.enter("a")
        tr.enter("b")
        end = tr.exit()
        tr.book(end)
        tr.exit()
        self.assertEqual(tr.self_time, {"a": 6, "b": 2})
        self.assertEqual(tr.bookkeeping, 2)
        self.assertEqual(tracing.attributed(tr), 10)


class RelabellingTest(unittest.TestCase):

    def test_answers_are_invariant_on_the_smallest_cases(self):
        """Every renaming, the identity's index included, gives the pinned answer."""
        keys = [k for k in REFERENCES if k.startswith("cohomology|")]
        checked = 0
        for key in keys:
            _, name, coeff, r, n = key.split("|")
            if base_table(name)[0] > 3:
                continue
            for perm in itertools.permutations(range(base_table(name)[0])):
                M = ENGINE.monoid.validate_table(*relabel(base_table(name), list(perm)))
                A = build_module(ENGINE, coeff, name, M, list(perm))
                got = ENGINE.cohomology.cohomology_group(M, int(r), int(n), A)
                self.assertEqual(got.to_json(), REFERENCES[key], (key, perm))
                checked += 1
        self.assertGreater(checked, 300)

    def test_seed_fixes_the_inputs(self):
        def order(seed):
            return [[q.key for q, _ in v]
                    for v in workloads.generate(ENGINE, "torsion-coeff", seed, 2)]
        self.assertEqual(order(3), order(3))
        self.assertNotEqual(order(3), order(4))
        self.assertNotEqual(*order(3))
        tables = [workloads._relabelled("C(2,3)", random.Random(seed)) for seed in (5, 5, 6)]
        self.assertEqual(tables[0], tables[1])
        self.assertNotEqual(tables[0], tables[2])


class AbsentLayerTest(unittest.TestCase):

    def test_a_missing_name_is_reported_absent_and_the_run_goes_on(self):
        layers = [(mod, "renamed_" + attr if attr == "kernel_basis" else attr, span, hook)
                  for mod, attr, span, hook in tracing.LAYERS]
        tr = tracing.Tracer()
        query = Query("cohomology", "C(1,2)", "Z/4", 2, 4)
        with tracing.Installed(tr, ENGINE, layers) as installed:
            got = bind(ENGINE, query, None)()
        self.assertEqual(got.to_json(), REFERENCES[query.key])
        self.assertEqual(installed.absent, {"zlinalg.kernel_basis"})
        self.assertEqual(tracing.unavailable_metrics(tr, installed.absent)["absent_metrics"],
                         ["zlinalg.kernel_basis_s", "zlinalg.kernel_input_entries",
                          "zlinalg.max_entry_bits"])
        metrics = tracing.layer_metrics(tr, 1, installed.absent)
        self.assertEqual(set(metrics), set(tracing.LAYER_METRICS))
        self.assertEqual(metrics["zlinalg.kernel_basis_s"][0], 0)
        self.assertEqual(metrics["zlinalg.kernel_input_entries"][0], 0)
        self.assertGreater(metrics["zlinalg.preimage_lattice_s"][0], 0)
        for mod in ENGINE.modules:
            for value in vars(mod).values():
                self.assertFalse(hasattr(value, "__wrapped__"), value)

    def test_every_layer_metric_is_reported_when_every_layer_runs(self):
        tr = tracing.Tracer()
        with tracing.Installed(tr, ENGINE) as installed:
            for q in TINY + FRONTENDS:
                bind(ENGINE, q, None)()
        self.assertEqual(installed.absent, set())
        self.assertEqual(tracing.unavailable_metrics(tr, set()),
                         {"absent_metrics": [], "not_run_metrics": []})
        self.assertEqual(set(tracing.layer_metrics(tr, 1, set())),
                         set(tracing.LAYER_METRICS))

    def test_a_layer_that_does_not_run_is_listed_and_reads_zero(self):
        tr = tracing.Tracer()
        with tracing.Installed(tr, ENGINE):
            bind(ENGINE, Query("cohomology", "C(0,2)", "Z", 1, 2), None)()
        not_run = tracing.unavailable_metrics(tr, set())["not_run_metrics"]
        self.assertIn("zlinalg.kernel_basis_s", not_run)
        self.assertIn("zlinalg.lattice_solve_calls", not_run)
        self.assertIn("groupoid.iso_classes_s", not_run)
        metrics = tracing.layer_metrics(tr, 1, set())
        self.assertEqual(set(metrics), set(tracing.LAYER_METRICS))
        self.assertEqual({metrics[name][0] for name in not_run}, {0})
        # the free path never takes the lattice route: a share of 0 is a value
        self.assertEqual(metrics["cohomology.lattice_route_share"][0], 0.0)
        self.assertGreater(metrics["zlinalg.max_entry_bits"][0], 0)


class ScalingTest(unittest.TestCase):

    def test_a_probe_twice_as_slow_halves_the_reported_times(self):
        saved = run.probe_time
        run.probe_time = lambda: 2 * run.NOMINAL_PROBE_S
        try:
            bound = [(q, bind(ENGINE, q, None)) for q in TINY]
            samples, probes, raw = run.run_pass(bound, REFERENCES, run.Run())
        finally:
            run.probe_time = saved
        self.assertEqual(len(samples), len(TINY))
        self.assertGreaterEqual(len(probes), 2)
        self.assertAlmostEqual(sum(samples), raw / 2)


class RefusalTest(unittest.TestCase):

    def run_tiny(self, references, trace=0):
        saved = dict(workloads.WORKLOADS), run.load_references
        workloads.WORKLOADS["tiny"] = lambda: list(TINY)
        run.load_references = lambda: references
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "tiny", "--seed", "1",
                                 "--seconds", "0", "--trace", str(trace)])
        finally:
            workloads.WORKLOADS.clear()
            workloads.WORKLOADS.update(saved[0])
            run.load_references = saved[1]
        return code, json.loads(out.getvalue().splitlines()[-1])

    def test_correct_references_give_metrics(self):
        code, result = self.run_tiny(REFERENCES)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertIn("wall_s", result["metrics"])

    def test_the_result_holds_every_metric_of_the_manifest(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
            manifest = json.load(fh)
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = self.run_tiny(REFERENCES, trace)
            self.assertEqual(code, 0)
            self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in manifest[group]})

    def test_a_corrupted_reference_makes_the_run_refuse(self):
        corrupted = dict(REFERENCES)
        key = TINY[0].key
        corrupted[key] = {"free_rank": 0, "torsion": [2]}
        self.assertNotEqual(corrupted[key], REFERENCES[key])
        code, result = self.run_tiny(corrupted)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["metrics"], {})

    def test_without_the_engine_the_run_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "frontends",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
