"""Exact q-series arithmetic and a verification suite for the partition
quadruple counting functions u(n) and v(n)."""

from .partitions import (
    UVPair,
    sequence_lines,
    u_count,
    uv_series_def,
    uv_series_lambert,
    v_count,
)
from .products import p_count
from .report import CSV_FIELDS, Report, merge_reports, series_compare_report
from .series import (
    LaurentSeries,
    NonUnitError,
    Ring,
    RingMismatchError,
    SeriesError,
    WindowError,
    Zmod,
    ZZ,
)
from .verify import (
    REGISTRY,
    SUITE,
    TableError,
    ensure_suite_covers_registry,
    load_table,
    parse_table,
    run_check,
)

__all__ = [
    "CSV_FIELDS",
    "LaurentSeries",
    "NonUnitError",
    "REGISTRY",
    "Report",
    "Ring",
    "RingMismatchError",
    "SUITE",
    "SeriesError",
    "TableError",
    "UVPair",
    "WindowError",
    "ZZ",
    "Zmod",
    "ensure_suite_covers_registry",
    "load_table",
    "merge_reports",
    "p_count",
    "parse_table",
    "run_check",
    "sequence_lines",
    "series_compare_report",
    "u_count",
    "uv_series_def",
    "uv_series_lambert",
    "v_count",
]

__version__ = "0.1.0"
