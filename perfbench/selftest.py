"""Self-tests of the benchmark harness (about half a minute on 2 cores).

    python3 perfbench/selftest.py

They check that the tracer reaches every binding site and restores every
original, that tracing leaves the program's output byte for byte unchanged,
that runs start cold and repeat their call counts exactly, that a wrong term
table counts as a failed run while the informational conjecture report
never does, and that run.py reports the metrics BENCHMARK.json names.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

import run
from tracer import Tracer, traced_functions


def _import_qcong():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import qcong.cli  # noqa: F401  (imports every layer module)
    return sys.modules


def _namespaces():
    """Every qcong module namespace and the namespace of every qcong class
    such a module holds, enumerated here rather than by the tracer, so a
    site the tracer overlooks is still seen."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "qcong" or name.startswith("qcong."):
            out.append((mod, vars(mod)))
            out += [(v, vars(v)) for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__.startswith("qcong")]
    return out


def _entries():
    """(owner, attr) -> the function behind each namespace entry."""
    out = {}
    for owner, ns in _namespaces():
        for attr, entry in ns.items():
            if isinstance(entry, (classmethod, staticmethod)):
                entry = entry.__func__
            out[id(owner), attr] = entry
    return out


class BindingSites(unittest.TestCase):
    def test_every_site_wrapped_then_restored(self):
        mods = _import_qcong()
        series = mods["qcong.series"]
        originals = {id(fn) for fn, _ in traced_functions().values()}
        before = _entries()
        tracer = Tracer().install()
        try:
            during = _entries()
            LS = series.LaurentSeries
            a = LS(series.ZZ, 0, range(1, 200))
            b = a * a
            self.assertEqual(b.coeff(0), 1)
        finally:
            tracer.uninstall()
        after = _entries()
        unwrapped = [site for site, fn in during.items() if id(fn) in originals]
        self.assertEqual(unwrapped, [])
        wrapped = [site for site, fn in before.items() if id(fn) in originals]
        self.assertGreater(len(wrapped), 100)
        for site in wrapped:
            self.assertIs(during[site].perfbench_original, before[site])
        self.assertIs(LS.__dict__["__rmul__"], LS.__dict__["__mul__"])
        self.assertEqual({k: id(v) for k, v in after.items()},
                         {k: id(v) for k, v in before.items()})
        self.assertEqual(tracer.leftover_wrappers(), [])
        self.assertEqual(tracer.calls["series.LaurentSeries.mul"], 1)
        self.assertEqual(tracer.calls["_kernel.convolve.zz"], 1)
        self.assertEqual(tracer.edges[("series.LaurentSeries.mul",
                                       "_kernel.convolve.zz")], 1)
        for name, spent in tracer.self_s.items():
            self.assertLessEqual(spent, tracer.total_s[name] + 1e-9, name)


class Runs(unittest.TestCase):
    def test_tracing_leaves_output_unchanged(self):
        for workload in ("sequence", "modular"):
            spec = run.workload_spec(workload, 7)
            _, runs, summary = run.measure_traced(spec, 0)
            self.assertEqual([r["problems"] for r in runs], [[]], workload)

    def test_runs_start_cold_and_repeat_call_counts(self):
        spec = {**run.workload_spec("modular", 11), "trace": True}
        first, err1 = run.run_child(spec)
        second, err2 = run.run_child(spec)
        self.assertIsNotNone(first, err1)
        self.assertIsNotNone(second, err2)
        for result in (first, second):
            self.assertGreater(
                result["trace"]["counts"]["products.poch_cache.misses"], 0)
        self.assertEqual(run._call_counts(first["trace"]),
                         run._call_counts(second["trace"]))

    def test_wrong_table_row_counts_as_failed_run(self):
        spec = {"argv": ["verify", "--deterministic", "--check", "theorem2_u13",
                         "--check", "conjectures"], "scale": run.SCALE}
        os.makedirs(run.RESULTS, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            data = os.path.join(run.SRC, "qcong", "data")
            for name in ("a13.terms", "b13.terms"):
                shutil.copy(os.path.join(data, name), tmp)
            path = os.path.join(tmp, "a13.terms")
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            row = next(i for i, ln in enumerate(lines)
                       if ln.strip() and not ln.startswith("#"))
            fields = lines[row].split()
            fields[1] = str(int(fields[1]) % 12 + 1)
            lines[row] = " ".join(fields)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            env = dict(os.environ, QCONG_DATA_DIR=tmp)
            _, runs, _ = run.measure(spec, 0, env)
        self.assertEqual(len(runs), 1)
        self.assertIn("theorem2_u13 status fail", runs[0]["problems"])
        self.assertNotIn("conjectures status fail", runs[0]["problems"])

    def test_informational_fail_is_not_counted(self):
        spec = {"argv": ["verify", "--deterministic", "--check", "conjectures"]}
        result, error = run.run_child(spec)
        self.assertIn("conjectures,fail", result["stdout"])
        self.assertEqual(run.judge(spec, result, error), [])


class Contract(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(n, run.per_layer_unit(n)) for n in run.PER_LAYER])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         ["suite", "modular", "sequence"])


if __name__ == "__main__":
    unittest.main()
