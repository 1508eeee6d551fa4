"""Measurement substrate: structural sets, distributions, core reads."""

from repro.analysis.subcore import order_core, pure_core, sub_core
from repro.analysis.distributions import (
    bucket_proportions,
    cumulative_distribution,
    ratio_sum,
)
from repro.analysis.kcore_views import core_spectrum, degeneracy
from repro.analysis.metrics import UpdateLog
from repro.analysis.validation import (
    ValidationReport,
    validate_against_reference,
    validate_maintainer,
)

__all__ = [
    "UpdateLog",
    "ValidationReport",
    "validate_against_reference",
    "validate_maintainer",
    "bucket_proportions",
    "core_spectrum",
    "cumulative_distribution",
    "degeneracy",
    "order_core",
    "pure_core",
    "ratio_sum",
    "sub_core",
]
