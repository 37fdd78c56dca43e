"""Shared utilities: deterministic RNG handling, validation helpers, units."""

from repro.utils.rng import as_rng, derive_rng
from repro.utils.validation import check_power_of_two, log2_int
from repro.utils.units import KiB, MiB, GiB, format_bytes, format_seconds

__all__ = [
    "as_rng",
    "derive_rng",
    "check_power_of_two",
    "log2_int",
    "KiB",
    "MiB",
    "GiB",
    "format_bytes",
    "format_seconds",
]
