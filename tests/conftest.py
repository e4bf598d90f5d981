import dataclasses

import pytest

from qcong import partitions, verify

# parameters small enough to run every registered check in a test
SMALL = {
    "uv_oracle": {"n_max": 12},
    "uv_dual": {"prec": 60},
    "theorem1": {"n_max": 40},
    # the least prec each case accepts, 2 ell^2
    **{f"theorem2_{case.lower()}": {"prec": 2 * int(case[1:]) ** 2}
       for case in verify.CASES},
    "lemma_main": {"prec": 60, "ells": [3, 5]},
    "lemma_second": {"prec": 60, "ells": [3, 5]},
    "ecubed_dissect": {"prec": 60},
    "eta_dissections": {"prec": 60},
    "product_rules": {"prec": 60},
    "bailey_uv": {"n_max": 4},
    "finite_jtp": {"n_max": 4},
    "t_functional_eq": {"prec": 60},
    "chan_identity": {"prec": 60},
    "pole_split": {},
    "cross_lemma": {"ells": [5], "prec": 60},
    "conjectures": {"n_max": 60, "prec": 60},
}


@pytest.fixture
def small_checks(monkeypatch):
    """Every registered check with SMALL in place of its defaults."""
    for cid, params in SMALL.items():
        cd = verify.REGISTRY[cid]
        monkeypatch.setitem(verify.REGISTRY, cid, dataclasses.replace(
            cd, defaults={**cd.defaults, **params}))
    return SMALL


@pytest.fixture
def counted_builds(monkeypatch):
    """A cold uv_series_def cache, and the length of every _end_division
    call: one per run of the u/v recurrence, at its prec."""
    monkeypatch.setattr(partitions, "_def_cache", {"prec": 0, "pair": None})
    lengths = []
    real = partitions._end_division

    def counted(*sums):
        lengths.append(len(sums[0]))
        return real(*sums)

    monkeypatch.setattr(partitions, "_end_division", counted)
    return lengths
