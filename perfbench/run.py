"""qcong benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload suite|modular|sequence --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src, and
nothing needs to be installed.  Every workload run happens in a fresh
interpreter (perfbench/child.py), because a user pays for cold caches on
every CLI call.  With --trace 0 the runs repeat until --seconds are used;
wall_s and setup_s are means over them and peak_rss_mib the median (see
"Noise and bounds" in README.md); with --trace 1 untraced and traced runs
alternate and the per-layer metrics come from the traced ones.
The last line of stdout is one JSON object; the environment, every run and
the full trace are also written under perfbench/results/.  See README.md.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
CHILD_TIMEOUT_S = 170
# setup_s is the mean of at least SETUP_STARTS interpreter starts, spread
# over the measuring window (SETUP_PER_RUN before each workload run, the rest
# after the last) so that it averages the spells of a shared host
SETUP_STARTS = 20
SETUP_PER_RUN = 3

SUITE_IDS = (
    "uv_oracle", "uv_dual", "theorem1",
    "theorem2_u3", "theorem2_v3", "theorem2_u5", "theorem2_v5",
    "theorem2_u7", "theorem2_v7", "theorem2_u13", "theorem2_v13",
    "lemma_main", "lemma_second", "ecubed_dissect", "eta_dissections",
    "product_rules", "bailey_uv", "finite_jtp", "beta_second_derivative",
    "t_functional_eq", "chan_identity", "pole_split", "cross_lemma",
    "conjectures",
)
MODULAR_IDS = ("theorem2_u13", "theorem2_v13", "lemma_main", "lemma_second",
               "cross_lemma")

# The registered defaults make `qcong suite` take about 90 s and the five
# modular checks about 37 s on a 2-core Xeon, longer than one benchmark run
# may last.  These parameters shrink the heaviest checks to about 10 s for
# `suite` and 3 s for `modular`, so that every workload runs several times in
# one window, while keeping each workload's layer split: product_rules still
# makes _kernel.unpack_signed the largest self time of the suite, and the
# mod-ell checks still make _kernel.convolve over Z/ell the largest self time
# of `modular`.  theorem1 and conjectures share one n_max, so the single-slot
# _def_cache serves conjectures from theorem1's series as it does at the
# registered defaults.
SCALE = {
    "theorem1": {"n_max": 1000},
    "theorem2_u13": {"prec": 400},
    "theorem2_v13": {"prec": 400},
    "lemma_main": {"prec": 150, "ells": [3, 5]},
    "lemma_second": {"prec": 150, "ells": [3, 5]},
    "eta_dissections": {"prec": 1000},
    "product_rules": {"prec": 2000},
    "cross_lemma": {"ells": [5]},
    "conjectures": {"n_max": 1000, "prec": 1000},
}
SEQUENCE_N_MAX = 2000

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

_STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
               "wall_s": "s", "bytes": "bytes", "out_coeffs": "count",
               "cache_hits": "count", "hits": "count", "misses": "count",
               "size": "count", "overhead_ratio": "ratio"}


def _layer(span, *stats):
    return [f"{span}.{s}" for s in stats]


# metrics read from a traced run's spans and counters
TRACED = (
    _layer("_kernel.unpack_signed", "calls", "self_s", "bytes")
    + _layer("_kernel.convolve.mod", "calls", "self_s", "out_coeffs")
    + _layer("_kernel.convolve.zz", "calls", "self_s", "out_coeffs")
    + _layer("_kernel.pack", "calls", "self_s", "bytes")
    + _layer("_kernel.newton_invert", "calls", "self_s")
    + _layer("_kernel.PackedSeries", "calls", "self_s")
    + _layer("series.LaurentSeries.init", "calls", "self_s")
    + _layer("series.LaurentSeries.mul", "calls")
    + _layer("series.LaurentSeries.invert", "calls")
    + _layer("series.LaurentSeries.addsub", "calls", "self_s")
    + _layer("products.jacobi_theta", "calls", "total_s")
    + _layer("products.euler_E", "calls")
    + _layer("products.pochhammer_finite", "calls")
    + _layer("products.eval_product_expr", "calls", "total_s")
    + _layer("products.poch_cache", "hits", "misses", "size")
    + _layer("products.jacobi_cache", "hits", "misses", "size")
    + _layer("lambert.t_series", "calls", "self_s")
    + _layer("lambert.s_series", "calls", "self_s")
    + _layer("lambert.double_pole_sum", "calls", "self_s")
    + _layer("partitions.uv_series_def", "calls", "total_s", "cache_hits")
    + _layer("partitions.uv_series_lambert", "calls", "total_s")
    + [f"verify.{cid}.wall_s" for cid in SUITE_IDS]
)


def metric_name(name):
    """Metric names must start with a letter or a digit, so the spans of the
    `_kernel` module report as `kernel.*`."""
    return name.lstrip("_")


PER_LAYER = [metric_name(n) for n in TRACED] + ["trace.overhead_ratio",
                                                "fail_ratio"]


def per_layer_unit(name):
    return "ratio" if name == "fail_ratio" else _STAT_UNITS[name.rsplit(".", 1)[1]]


def workload_spec(workload, seed):
    """CLI arguments for one run.  The seed varies only what leaves the work
    unchanged: the check order of `modular` (its checks share caches only by
    key) and the sequence of `sequence` (u and v come from one
    uv_series_def call).  `suite` keeps the documented order, because the
    single-slot _def_cache makes its work depend on order."""
    rng = random.Random(seed)
    if workload == "suite":
        argv = ["suite", "--deterministic", "--jobs", "1"]
    elif workload == "modular":
        ids = list(MODULAR_IDS)
        rng.shuffle(ids)
        argv = ["verify", "--deterministic", "--jobs", "1"]
        for cid in ids:
            argv += ["--check", cid]
    elif workload == "sequence":
        argv = ["coeffs", "--seq", rng.choice("uv"),
                "--n-max", str(SEQUENCE_N_MAX)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"argv": argv, "scale": SCALE}


# -- running children --------------------------------------------------------


def run_child(spec, env=None):
    """One workload run in a fresh interpreter: (result dict or None, error)."""
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, "run", SRC, json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
            cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"child ran longer than {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.splitlines()[-1]), None


def time_setup(env=None):
    """Seconds from spawning an interpreter until it has imported qcong,
    checked the registry and parsed both term tables, then exited."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, CHILD, "setup", SRC], check=True,
                   capture_output=True, env=env, timeout=CHILD_TIMEOUT_S,
                   cwd=ROOT)
    return time.perf_counter() - t0


def _load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def judge(spec, result, error):
    """Problems with one run; an empty list means it passed.  A run fails on
    a crash, a nonzero exit code, a gating check whose status is not `pass`,
    or sequence output whose digest differs from the recorded one.
    Informational checks (the conjecture scans) never count."""
    if result is None:
        return [error]
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}")
    argv = spec["argv"]
    if argv[0] == "coeffs":
        key = f"{argv[argv.index('--seq') + 1]}:{argv[argv.index('--n-max') + 1]}"
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        if digest != _load_expected()["sequence_sha256"].get(key):
            problems.append(f"sequence {key} digest {digest} differs from the recorded one")
        return problems
    want = (result["suite"] if argv[0] == "suite"
            else [argv[i + 1] for i, a in enumerate(argv) if a == "--check"])
    lines = result["stdout"].splitlines()
    if "check_id,status,prec,first_failure_exponent" not in lines:
        return problems + ["no CSV summary in the output"]
    rows = [ln.split(",") for ln in
            lines[lines.index("check_id,status,prec,first_failure_exponent") + 1:]]
    if [r[0] for r in rows] != want:
        problems.append(f"checks reported {[r[0] for r in rows]}, expected {want}")
    for r in rows:
        if r[0] not in result["informational"] and r[1] != "pass":
            problems.append(f"{r[0]} status {r[1]}")
    return problems


# -- environment and results -------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args):
    models = [ln.split(":", 1)[1].strip()
              for ln in _read("/proc/cpuinfo").splitlines()
              if ln.startswith("model name")]
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else None,
        "loadavg_start": _read("/proc/loadavg").strip(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _write_json(name, data):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# -- the two modes -----------------------------------------------------------


def _run_loop(seconds, one_round):
    """Call one_round() until the next round would end after `seconds`;
    at least one round always runs."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def measure(spec, seconds, env=None):
    """Untraced runs for the end-to-end metrics.  Times are means over the
    window: a shared host alternates between spells up to twice as slow, and
    the mean moves in proportion to the share of slow time, while the median
    and the fastest run jump between the spells."""
    runs, setup_times = [], []

    def one_round():
        setup_times.extend(time_setup(env) for _ in range(SETUP_PER_RUN))
        result, error = run_child(spec, env)
        problems = judge(spec, result, error)
        runs.append({"problems": problems,
                     **({k: result[k] for k in ("exit_code", "wall_s", "peak_rss_mib")}
                        if result else {})})
        print(f"run {len(runs)}: " + (
            f"wall_s={result['wall_s']:.4f} peak_rss_mib={result['peak_rss_mib']:.2f}"
            if result else "crashed") + (f" FAILED: {problems}" if problems else ""),
            flush=True)

    _run_loop(seconds, one_round)
    while len(setup_times) < SETUP_STARTS:
        setup_times.append(time_setup(env))
    timed = [r for r in runs if "wall_s" in r]
    if not timed:
        raise RuntimeError("no run produced a measurement")
    walls = [r["wall_s"] for r in timed]
    print(f"wall_s over {len(walls)} runs: min {min(walls):.4f} median "
          f"{statistics.median(walls):.4f} max {max(walls):.4f}; setup_s over "
          f"{len(setup_times)} starts: min {min(setup_times):.4f} median "
          f"{statistics.median(setup_times):.4f}", flush=True)
    metrics = {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.fmean(setup_times),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
    }
    return metrics, runs, {"setup_s": setup_times}


def layer_value(name, summary):
    span, stat = name.rsplit(".", 1)
    if stat in ("calls", "self_s", "total_s"):
        return summary["spans"].get(span, {}).get(stat, 0)
    if stat == "wall_s":
        return summary["spans"].get(span, {}).get("total_s", 0.0)
    return summary["counts"].get(name, 0)


def measure_traced(spec, seconds, env=None):
    """Pairs of one untraced and one traced run.  The traced output must be
    byte-identical to the untraced one, and every traced run must make
    exactly the same calls; either difference fails the run loudly."""
    runs, summaries, ratios = [], [], []

    def one_round():
        plain, error = run_child(spec, env)
        problems = judge(spec, plain, error)
        traced, error = run_child({**spec, "trace": True}, env)
        problems += [f"traced: {p}" for p in judge(spec, traced, error)]
        if plain and traced:
            if plain["stdout"] != traced["stdout"]:
                problems.append("tracing changed the program's output")
            ratios.append(traced["wall_s"] / plain["wall_s"])
            summary = traced["trace"]
            if summaries and (_call_counts(summary) != _call_counts(summaries[0])):
                problems.append("traced call counts differ between runs")
            summaries.append(summary)
        for p in problems:
            print(f"ERROR: {p}", file=sys.stderr, flush=True)
        runs.append({"problems": problems,
                     "wall_s": plain and plain["wall_s"],
                     "traced_wall_s": traced and traced["wall_s"]})
        print(f"pair {len(runs)}: " + (f"overhead {ratios[-1]:.4f}" if plain and traced
                                        else "crashed"), flush=True)

    _run_loop(seconds, one_round)
    if not summaries:
        raise RuntimeError("no traced run completed")
    # counts repeat exactly (checked above); times are medians
    metrics = {}
    for name in TRACED:
        values = [layer_value(name, s) for s in summaries]
        metrics[metric_name(name)] = (statistics.median(values)
                                      if name.endswith("_s") else values[0])
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics, runs, summaries[0]


def _call_counts(summary):
    return ({n: s["calls"] for n, s in summary["spans"].items()},
            summary["counts"])


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills the running
    # child and waits for it, so a terminated benchmark leaves no process
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("suite", "modular", "sequence"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcong", "cli.py")):
        print(f"error: no qcong sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    info = environment(args)
    spec = workload_spec(args.workload, args.seed)
    info["argv"] = spec["argv"]
    print("env: " + json.dumps(info), flush=True)
    if args.trace:
        metrics, runs, summary = measure_traced(spec, args.seconds)
        units = {name: per_layer_unit(name) for name in PER_LAYER}
        extra = {"trace": summary}
    else:
        metrics, runs, extra = measure(spec, args.seconds)
        units = dict(END_TO_END)
    failed = sum(1 for r in runs if r["problems"])
    if args.trace:
        metrics["fail_ratio"] = failed / len(runs)
    info["loadavg_end"] = _read("/proc/loadavg").strip()

    for name, value in metrics.items():
        if name != "fail_ratio":
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / len(runs):.6g} ({failed}/{len(runs)} runs failed)")
    path = _write_json(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"env": info, "runs": runs, "metrics": metrics, **extra})
    print(f"results: {os.path.relpath(path, ROOT)}", flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
