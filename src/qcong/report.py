"""Result records for identity checks."""

import json
import math
from dataclasses import dataclass, field

CSV_FIELDS = ("check_id", "status", "prec", "first_failure_exponent")


@dataclass
class Report:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    prec: int
    params: dict = field(default_factory=dict)
    window: tuple = None  # (low, prec) actually compared, when applicable
    first_failure: tuple = None  # (exponent, lhs coeff, rhs coeff)
    notes: str = ""
    wall_time: float = None

    def to_dict(self, deterministic=False):
        d = {
            "check_id": self.check_id,
            "status": self.status,
            "prec": self.prec,
            "params": self.params,
            "window": list(self.window) if self.window is not None else None,
            "first_failure": self.first_failure,
            "notes": self.notes,
        }
        if not deterministic:
            d["wall_time"] = self.wall_time
        return d

    def to_json(self, deterministic=False):
        return json.dumps(self.to_dict(deterministic), sort_keys=True)

    def csv_row(self):
        ff = self.first_failure
        if isinstance(ff, (tuple, list)) and ff:
            ff = ff[0]  # CSV column wants the exponent, not the coeff pair
        return (self.check_id, self.status, str(self.prec),
                "" if ff is None else str(ff))


def series_compare_report(check_id, lhs, rhs, prec, params=None):
    """Compare two series on their window overlap and grade the result.

    A comparison whose overlap ends below prec, or covers less than
    ceil(prec/2) coefficients, is reported as skipped rather than silently
    passing on a window short of what was asked for.
    """
    min_overlap = math.ceil(prec / 2)
    params = dict(params or {})
    lo = max(lhs.low, rhs.low)
    hi = min(lhs.prec, rhs.prec)
    if hi < prec:
        return Report(check_id, "skipped", prec, params, None, None,
                      f"overlap [{lo},{hi}) ends below prec {prec}")
    if hi - lo < min_overlap:
        return Report(check_id, "skipped", prec, params, None, None,
                      f"overlap [{lo},{hi}) shorter than required {min_overlap}")
    diff = lhs.first_difference(rhs)
    if diff is not None:
        return Report(check_id, "fail", prec, params, (lo, hi), diff,
                      "series disagree")
    return Report(check_id, "pass", prec, params, (lo, hi))


def merge_reports(check_id, prec, reports, params=None):
    """Fold a family of sub-reports into one, keeping the worst outcome.
    An empty family compared nothing, so it is skipped, never a pass."""
    params = dict(params or {})
    params["subchecks"] = len(reports)
    if not reports:
        return Report(check_id, "skipped", prec, params,
                      notes="no subchecks ran")
    for r in reports:
        if r.status == "fail":
            notes = f"{r.check_id}: {r.notes}" if r.notes else r.check_id
            return Report(check_id, "fail", prec, params, r.window,
                          r.first_failure, notes)
    skipped = [r for r in reports if r.status == "skipped"]
    if skipped:
        return Report(check_id, "skipped", prec, params, None, None,
                      "; ".join(r.check_id for r in skipped))
    return Report(check_id, "pass", prec, params)
