"""What the benchmark harness (perfbench/) takes from qcong.

The harness changes only together with the benchmark, so a change to
qcong alone must keep every name it uses working: the setup run, the
check ids its workloads name, and the caches it counts.
"""

import ast
import subprocess
import sys
from pathlib import Path

from qcong import products
from qcong.verify import REGISTRY

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _run_constant(name):
    """The literal value of a module-level constant of perfbench/run.py,
    read without running the file."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/run.py defines no {name}")


def test_benchmark_setup_run_exits_cleanly():
    # child.py setup imports the package, runs its registry check and
    # parses both .terms tables
    root = PERFBENCH.parent
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "setup",
         str(root / "src")], cwd=root, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stderr


def test_benchmark_workloads_name_registered_checks():
    named = set(_run_constant("MODULAR_IDS")) | set(_run_constant("SCALE"))
    assert named <= set(REGISTRY), sorted(named - set(REGISTRY))


def test_benchmark_counted_caches_expose_cache_info():
    for fn in (products._poch_inf_coeffs, products._jacobi_unit_coeffs):
        info = fn.cache_info()
        assert {"hits", "misses", "currsize"} <= set(info._fields)
