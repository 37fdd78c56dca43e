"""Byte/time unit constants and human-readable formatting.

The simulators account memory in bytes and time in seconds; benchmark tables
render through these formatters so every report uses consistent units.
"""

from __future__ import annotations

__all__ = ["KiB", "MiB", "GiB", "format_bytes", "format_seconds"]

KiB = 1024
MiB = 1024**2
GiB = 1024**3


def format_bytes(n: float) -> str:
    """Render a byte count with a binary-prefix unit (e.g. ``'1.50 MiB'``)."""
    n = float(n)
    for unit, scale in (("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if abs(n) >= scale:
            return f"{n / scale:.2f} {unit}"
    return f"{n:.0f} B"


def format_seconds(t: float) -> str:
    """Render a duration with an SI prefix (e.g. ``'12.3 us'``)."""
    t = float(t)
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6)):
        if abs(t) >= scale:
            return f"{t / scale:.3g} {unit}"
    return f"{t / 1e-9:.3g} ns"

