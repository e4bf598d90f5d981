"""Command line front end.

coeffs     sequence values read off the generating series
enumerate  the same values by direct counting
verify     run named identity checks
suite      run every registered check at its default scale
explore    run the open-conjecture scans (never gates the exit code)

Exit codes: 0 all asserted checks pass, 1 a check failed, 2 usage or
configuration problem, 3 a term-table data file failed to parse.
"""

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor

from .partitions import (count_table, planned_uv, sequence_lines,
                         uv_series_def)
from .products import euler_E, p_count
from .report import CSV_FIELDS
from .series import ZZ, LaurentSeries
from .verify import REGISTRY, SUITE, TableError, run_check, uv_precision

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_TABLE = 3


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="qcong",
        description="Exact q-series checks for the u/v congruence family.")
    sub = ap.add_subparsers(dest="command", required=True)

    def seq_flags(p):
        p.add_argument("--seq", choices=("u", "v", "p"), default="u",
                       help="which sequence (default u)")
        p.add_argument("--n-max", type=int, default=25, dest="n_max",
                       help="largest argument printed (default 25)")
        p.add_argument("--mod", type=int, default=None,
                       help="reduce the printed values mod this")
        p.add_argument("--out", default=None,
                       help="write the export format here instead of stdout")

    def check_flags(p):
        p.add_argument("--prec", type=int, default=None,
                       help="override series precision where a check has one")
        p.add_argument("--n-max", type=int, default=None, dest="n_max",
                       help="override coefficient bound where a check has one")
        p.add_argument("--out", default=None,
                       help="write the JSON report lines here")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent checks")
        p.add_argument("--deterministic", action="store_true",
                       help="drop wall times so output is byte-stable")

    pc = sub.add_parser("coeffs", help="series coefficients u, v, or p")
    seq_flags(pc)
    pe = sub.add_parser("enumerate", help="directly counted u, v, or p")
    seq_flags(pe)
    pv = sub.add_parser("verify", help="run the named checks")
    pv.add_argument("--check", action="append", default=[], dest="checks",
                    metavar="ID", help="check id, repeatable")
    check_flags(pv)
    ps = sub.add_parser("suite", help="run every registered check")
    check_flags(ps)
    px = sub.add_parser("explore", help="run the conjecture scans")
    check_flags(px)
    return ap


def _sequence_cmd(args, enumerated):
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    if args.mod is not None and args.mod < 1:
        raise ValueError("--mod must be >= 1")
    ns = range(args.n_max + 1)
    if enumerated:
        if args.seq == "p":
            vals = [p_count(n) for n in ns]
        else:
            vals = count_table(args.seq, args.n_max)
        origin = "enumerate"
    else:
        if args.seq == "p":
            series = LaurentSeries.one(ZZ, args.n_max + 1).divide(
                euler_E(1, args.n_max + 1, ZZ))
        else:
            pair = uv_series_def(args.n_max + 1)
            series = pair.u if args.seq == "u" else pair.v
        vals = [series.coeff(n) for n in ns]
        origin = "series"
    if args.mod is not None:
        vals = [v % args.mod for v in vals]
        origin += f" mod {args.mod}"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(sequence_lines(args.seq, vals, origin))
    else:
        print(",".join(str(v) for v in vals))
    return EXIT_PASS


def _run_checks(ids, args):
    """The reports of the checks ids, in order.  A sequential run plans the
    u/v recurrence at the largest precision its checks read (uv_precision),
    so the first check that reads u/v builds it once, the time showing in
    that check's wall time, and every later one reads a truncation.  With
    --jobs > 1 nothing is planned: each worker builds what its own checks
    ask for."""
    overrides = {"prec": args.prec, "n_max": args.n_max}
    if args.jobs > 1 and len(ids) > 1:
        # the pool forks every worker at the first submit: cap it at the
        # number of checks
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(ids))) as pool:
            futures = [pool.submit(run_check, cid, overrides) for cid in ids]
            return [f.result() for f in futures]
    with planned_uv(uv_precision(ids, overrides)):
        return [run_check(cid, overrides) for cid in ids]


def _emit_reports(reports, args):
    lines = [r.to_json(deterministic=args.deterministic) for r in reports]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in reports:
        writer.writerow(r.csv_row())


def _exit_code(ids, reports):
    code = EXIT_PASS
    for cid, rep in zip(ids, reports):
        if REGISTRY[cid].informational:
            continue
        if rep.status == "fail":
            return EXIT_CHECK_FAILED
        if rep.status == "skipped":
            code = EXIT_USAGE  # window too narrow to assert anything
    return code


def _check_cmd(args, ids, gating=True):
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.prec is not None and args.prec < 1:
        raise ValueError("--prec must be >= 1")
    unknown = [c for c in ids if c not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown check ids: {', '.join(sorted(unknown))}")
    reports = _run_checks(ids, args)
    _emit_reports(reports, args)
    return _exit_code(ids, reports) if gating else EXIT_PASS


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "coeffs":
            return _sequence_cmd(args, enumerated=False)
        if args.command == "enumerate":
            return _sequence_cmd(args, enumerated=True)
        if args.command == "verify":
            if not args.checks:
                raise ValueError("verify needs at least one --check")
            return _check_cmd(args, list(args.checks))
        if args.command == "suite":
            return _check_cmd(args, list(SUITE))
        return _check_cmd(args, ["conjectures"], gating=False)
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TABLE
    except (KeyError, ValueError, OSError, RuntimeError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
