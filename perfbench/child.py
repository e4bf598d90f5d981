"""One workload run in a fresh interpreter; started by run.py, never imported.

    python3 child.py setup <src dir>
        import qcong, check the suite registry and parse both .terms tables,
        then exit; run.py times the whole process.
    python3 child.py run <src dir> <spec json>
        call qcong.cli.main(spec["argv"]) once, with its stdout captured, and
        print one JSON line with the exit code, wall time, peak RSS, the
        captured output and, when spec["trace"] is set, the layer trace.

spec["scale"] maps check ids to parameter values that replace the check's
registered defaults for this run (see SCALE in run.py).
"""

import contextlib
import dataclasses
import io
import json
import resource
import sys
import time


def _setup(src):
    sys.path.insert(0, src)
    from qcong.verify import ensure_suite_covers_registry, load_table

    ensure_suite_covers_registry()
    load_table("A13")
    load_table("B13")


def _cache_counts():
    from qcong import products

    out = {}
    for name, fn in (("poch_cache", products._poch_inf_coeffs),
                     ("jacobi_cache", products._jacobi_unit_coeffs)):
        info = fn.cache_info()
        out[f"products.{name}.hits"] = info.hits
        out[f"products.{name}.misses"] = info.misses
        out[f"products.{name}.size"] = info.currsize
    return out


def _run(src, spec):
    sys.path.insert(0, src)
    import qcong.cli
    from qcong.verify import REGISTRY, SUITE

    for cid, params in spec.get("scale", {}).items():
        cd = REGISTRY[cid]
        REGISTRY[cid] = dataclasses.replace(
            cd, defaults={**cd.defaults, **params})

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer  # this file's directory is on sys.path

        tracer = Tracer().install()
        missed = tracer.unwrapped_sites()
        if missed:
            raise RuntimeError(f"tracer missed binding sites: {missed}")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = qcong.cli.main(spec["argv"])
        wall = time.perf_counter() - t0

    result = {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout": out.getvalue(),
        "informational": sorted(c for c, d in REGISTRY.items() if d.informational),
        "suite": list(SUITE),
    }
    if tracer is not None:
        tracer.uninstall()
        left = tracer.leftover_wrappers()
        if left:
            raise RuntimeError(f"tracer left wrappers behind: {left}")
        result["trace"] = tracer.summary()
        result["trace"]["counts"].update(_cache_counts())
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2])
    else:
        _run(sys.argv[2], json.loads(sys.argv[3]))
