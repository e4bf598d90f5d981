import hashlib
import json
from pathlib import Path

import pytest

from qcong import cli, partitions, verify
from qcong.partitions import uv_series_def
from qcong.verify import SUITE


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_reports(out, n_checks):
    """stdout layout: n JSON lines, then the CSV header, then n CSV rows."""
    lines = out.splitlines()
    reports = [json.loads(line) for line in lines[:n_checks]]
    assert lines[n_checks] == "check_id,status,prec,first_failure_exponent"
    return reports, lines[n_checks + 1:]


def test_coeffs_partition_example(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--seq", "p", "--n-max", "5")
    assert code == 0
    assert out == "1,1,2,3,5,7\n"


def test_enumerate_matches_coeffs(capsys):
    _, out_c, _ = run_cli(capsys, "coeffs", "--seq", "u", "--n-max", "10")
    _, out_e, _ = run_cli(capsys, "enumerate", "--seq", "u", "--n-max", "10")
    assert out_c == out_e
    assert out_c.startswith("0,1,5,15,44,")


def test_coeffs_mod_reduction(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--seq", "u", "--n-max", "6",
                           "--mod", "5")
    assert code == 0
    assert out == "0,1,0,0,4,0,2\n"


def test_coeffs_out_file(tmp_path, capsys):
    dest = tmp_path / "v.txt"
    code, out, _ = run_cli(capsys, "coeffs", "--seq", "v", "--n-max", "4",
                           "--out", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text() == "# v 4 series\n0\n0\n1\n4\n15\n"


def test_coeffs_rejects_negative_bound(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--n-max", "-1")
    assert code == 2
    assert "n-max" in err


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "theorem1",
                           "--n-max", "100")
    assert code == 0
    reports, rows = split_reports(out, 1)
    assert reports[0]["check_id"] == "theorem1"
    assert reports[0]["status"] == "pass"
    assert rows == ["theorem1,pass,100,"]


def test_verify_multiple_checks_keep_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "pole_split",
                           "--check", "t_functional_eq", "--prec", "60")
    assert code == 0
    reports, _ = split_reports(out, 2)
    assert [r["check_id"] for r in reports] == ["pole_split",
                                                "t_functional_eq"]


def test_verify_jobs_pool(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "t_functional_eq",
                           "--check", "pole_split", "--prec", "60",
                           "--jobs", "2")
    assert code == 0
    reports, _ = split_reports(out, 2)
    assert [r["check_id"] for r in reports] == ["t_functional_eq",
                                                "pole_split"]


def inline_pool(sizes):
    """A fake pool that records max_workers in sizes and runs each task
    inline, so no worker process is started whatever --jobs asks for."""
    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            class Done:
                result = staticmethod(lambda: fn(*args))
            return Done()

    return InlinePool


def test_jobs_pool_is_capped_at_the_number_of_checks(monkeypatch, capsys):
    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", inline_pool(sizes))
    for jobs, want in (("5000", 2), ("2", 2)):
        code, out, _ = run_cli(capsys, "verify", "--check", "t_functional_eq",
                               "--check", "pole_split", "--prec", "60",
                               "--jobs", jobs)
        assert code == 0
        reports, _ = split_reports(out, 2)
        assert [r["check_id"] for r in reports] == ["t_functional_eq",
                                                    "pole_split"]
        assert sizes.pop() == want


def test_sequential_suite_runs_the_recurrence_once(monkeypatch, capsys,
                                                  small_checks,
                                                  counted_builds):
    # the checks read u/v at 13 (uv_oracle), 41 (theorem1), 61
    # (conjectures) and, through --prec, 400; the first of them builds at
    # 400 and the rest read truncations
    code, out, _ = run_cli(capsys, "suite", "--deterministic", "--prec", "400")
    assert code == 0
    assert len(out.splitlines()) == 2 * len(SUITE) + 1
    assert counted_builds == [400]
    # the plan ends with the run: a bare miss builds at its own prec
    monkeypatch.setattr(partitions, "_def_cache", {"prec": 0, "pair": None})
    assert uv_series_def(30).u.prec == 30
    assert counted_builds == [400, 30]


@pytest.mark.parametrize("jobs, builds", [("1", [100]), ("2", [21, 100])])
def test_only_a_sequential_run_plans_the_recurrence(monkeypatch, capsys,
                                                    counted_builds, jobs,
                                                    builds):
    # uv_oracle reads 21 and uv_dual 100: one build at 100 in sequence,
    # while a pool worker builds only what its own check asks for
    monkeypatch.setattr(cli, "ProcessPoolExecutor", inline_pool([]))
    code, _, _ = run_cli(capsys, "verify", "--check", "uv_oracle", "--check",
                         "uv_dual", "--n-max", "20", "--prec", "100",
                         "--jobs", jobs)
    assert code == 0
    assert counted_builds == builds


def test_pool_and_sequential_runs_print_the_same_reports(capsys):
    argv = ("verify", "--check", "uv_oracle", "--check", "uv_dual",
            "--check", "theorem1", "--check", "theorem2_v3", "--n-max", "40",
            "--prec", "120", "--deterministic", "--jobs")
    first, second = (run_cli(capsys, *argv, jobs) for jobs in ("1", "2"))
    assert first[0] == 0
    assert first == second


def test_verify_unknown_check_rejected_before_work(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "theorem1",
                             "--check", "nope")
    assert code == 2
    assert out == ""
    assert "nope" in err


def test_verify_requires_a_check(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "--check" in err


def test_verify_out_file_still_prints_summary(tmp_path, capsys):
    dest = tmp_path / "reports.jsonl"
    code, out, _ = run_cli(capsys, "verify", "--check", "pole_split",
                           "--prec", "60", "--out", str(dest))
    assert code == 0
    assert out.splitlines()[0] == "check_id,status,prec,first_failure_exponent"
    assert json.loads(dest.read_text())["check_id"] == "pole_split"


def test_deterministic_output_is_byte_stable(capsys):
    args = ("verify", "--check", "pole_split", "--prec", "60",
            "--deterministic")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert "wall_time" not in first


def test_verify_exits_2_on_a_window_short_of_prec(capsys, monkeypatch):
    real = verify.t_series

    def short(a, b, c, prec, **kw):
        return real(a, b, c, prec - 1, **kw)

    monkeypatch.setattr(verify, "t_series", short)
    code, out, _ = run_cli(capsys, "verify", "--check", "t_functional_eq",
                           "--prec", "60")
    assert code == 2
    reports, rows = split_reports(out, 1)
    assert reports[0]["status"] == "skipped"
    assert rows == ["t_functional_eq,skipped,60,"]


def test_suite_output_matches_the_golden_file(capsys):
    # `qcong suite --deterministic` at the registered defaults, byte for
    # byte; a change that means to alter a report regenerates the file
    golden = Path(__file__).parent / "data" / "suite_deterministic.txt"
    code, out, _ = run_cli(capsys, "suite", "--deterministic")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_sequence_output_matches_the_benchmark_digests(capsys, monkeypatch):
    # the 2000-term sequences the benchmark's `sequence` workload prints,
    # by SHA-256 of stdout; a cold cache makes v come from the same
    # recurrence run as u
    recorded = json.loads((Path(__file__).parent.parent / "perfbench"
                           / "expected.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(partitions, "_def_cache", {"prec": 0, "pair": None})
    for seq in ("u", "v"):
        code, out, _ = run_cli(capsys, "coeffs", "--seq", seq, "--n-max", "2000")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == recorded["sequence_sha256"][f"{seq}:2000"], seq


def test_explore_never_gates(capsys):
    code, out, _ = run_cli(capsys, "explore", "--n-max", "90",
                           "--prec", "120")
    assert code == 0
    reports, rows = split_reports(out, 1)
    # the printed mod-13 quotient form misses, and that is fine here
    assert reports[0]["status"] == "fail"
    assert rows[0].startswith("conjectures,fail,")


def test_suite_command_runs_patched_suite(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SUITE", ("uv_oracle", "pole_split"))
    code, out, _ = run_cli(capsys, "suite", "--prec", "60", "--n-max", "12")
    assert code == 0
    reports, _ = split_reports(out, 2)
    assert [r["check_id"] for r in reports] == ["uv_oracle", "pole_split"]


def test_bad_table_file_exits_3(tmp_path, monkeypatch, capsys):
    (tmp_path / "a13.terms").write_text("1 2 3 4\n")
    monkeypatch.setenv("QCONG_DATA_DIR", str(tmp_path))
    code, _, err = run_cli(capsys, "verify", "--check", "theorem2_u13",
                           "--prec", "400")
    assert code == 3
    assert "expected 9 fields" in err


def test_missing_table_dir_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QCONG_DATA_DIR", str(tmp_path / "absent"))
    code, _, err = run_cli(capsys, "verify", "--check", "theorem2_u13",
                           "--prec", "400")
    assert code == 2
    assert "a13.terms" in err


def test_wrong_table_row_fails_check(tmp_path, monkeypatch, capsys):
    # a well-formed table with one corrupted coefficient must be caught by
    # the end-to-end comparison, not by the parser
    data = Path(verify.__file__).parent / "data" / "a13.terms"
    lines = data.read_text(encoding="utf-8").splitlines()
    row = next(i for i, ln in enumerate(lines)
               if ln.strip() and not ln.startswith("#"))
    fields = lines[row].split()
    fields[1] = str(int(fields[1]) % 12 + 1)
    lines[row] = " ".join(fields)
    (tmp_path / "a13.terms").write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("QCONG_DATA_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify", "--check", "theorem2_u13",
                           "--prec", "400")
    assert code == 1
    reports, _ = split_reports(out, 1)
    assert reports[0]["status"] == "fail"
    assert reports[0]["first_failure"] is not None


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
