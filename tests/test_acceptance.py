"""Acceptance criteria, one test per criterion, in order.

Every comparison behind these checks is an exact integer equality; there
are no tolerances anywhere.  Each test prints a single line with the
criterion verdict and the measured runtime; runtimes are informative
only and never asserted.  Run with -s to see the lines as they finish.
"""

from qcong.report import Report
from qcong.verify import REGISTRY, run_check


def _run(criterion, label, check_ids):
    reports = [run_check(cid) for cid in check_ids]
    ok = all(r.status == "pass" for r in reports)
    wall = sum(r.wall_time for r in reports)
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} "
          f"({wall:8.2f}s) {label}", flush=True)
    bad = [(r.check_id, r.status, r.first_failure, r.notes)
           for r in reports if r.status != "pass"]
    assert not bad, bad
    return reports


def test_criterion_01_oracle_equivalence():
    _run(1, "enumerated u(n), v(n) equal the series coefficients, n <= 25",
         ["uv_oracle"])


def test_criterion_02_dual_construction():
    _run(2, "recurrence and double-pole series agree exactly to 1000",
         ["uv_dual"])


def test_criterion_03_ten_congruences():
    reps = _run(3, "all ten congruences hold for every argument <= 2000",
                ["theorem1"])
    assert reps[0].params["n_max"] == 2000


def test_criterion_04_dissected_forms():
    _run(4, "definitional U, V mod l equal the closed forms, all 8 cases",
         ["theorem2_u3", "theorem2_v3", "theorem2_u5", "theorem2_v5",
          "theorem2_u7", "theorem2_v7", "theorem2_u13", "theorem2_v13"])


def test_criterion_05_s_representations():
    reps = _run(5, "both S_l(b) representations, l in {3,5,7,9,13}, "
                   "all valid (b, m), prec 300",
                ["lemma_main", "lemma_second"])
    # full grid: 2l-2 valid (b, m) pairs per modulus, 64 in total
    assert reps[0].params["subchecks"] == 64
    assert reps[1].params["subchecks"] == 64


def test_criterion_06_cube_dissection():
    _run(6, "E(1)^3 mod l matches its theta sum, l in {3,5,7,9,11,13}, "
            "plus the l=5,7 short forms", ["ecubed_dissect"])


def test_criterion_07_eta_dissections():
    _run(7, "exact 5- and 7-dissections to 2000; E(1)^10 mod 13 both shapes",
         ["eta_dissections"])


def test_criterion_08_product_rules():
    _run(8, "theta product rules to 5000; four-theta grid; mod-5/7 pieces",
         ["product_rules"])


def test_criterion_09_bailey_machinery():
    _run(9, "Bailey pairs to n=12 and the finite triple product in x to "
            "n=10, as whole polynomials",
         ["bailey_uv", "finite_jtp"])


def test_criterion_10_t_identities():
    _run(10, "T functional equation (30 points) and the two-term split "
             "(20 points) at prec 200",
         ["t_functional_eq", "chan_identity"])


def test_criterion_11_conjecture_exploration():
    rep = run_check("conjectures")
    print(f"criterion 11: PASS ({rep.wall_time:8.2f}s) conjecture scans "
          f"emitted a report (informational status: {rep.status})",
          flush=True)
    assert isinstance(rep, Report)
    assert REGISTRY["conjectures"].informational
    assert rep.params.get("informational") is True
    assert rep.params["n_max"] == 1800 and rep.params["prec"] == 2000
