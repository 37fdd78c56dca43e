"""Small argument-validation helpers shared across subpackages.

These raise early with precise messages; structured factorizations have hard
shape constraints (powers of two) that would otherwise surface as
confusing reshape errors deep inside vectorised numpy code.
"""

from __future__ import annotations

__all__ = ["check_power_of_two", "log2_int"]


def check_power_of_two(n: int, name: str = "n") -> int:
    """Validate that *n* is a positive power of two; return it unchanged."""
    n = int(n)
    if n <= 0 or (n & (n - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {n}")
    return n


def log2_int(n: int, name: str = "n") -> int:
    """Return log2(n) for a power-of-two *n* as an exact int."""
    check_power_of_two(n, name)
    return int(n).bit_length() - 1
