"""Parameter counting and compression-ratio accounting.

The paper's headline memory claim — "98.5 % compression" for the butterfly
SHL model — is a parameter-count statement: ``1 - N_params(method) /
N_params(baseline)``.  This module centralises that arithmetic so layers,
experiments and tests all report the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["compression_ratio", "CompressionReport"]


def compression_ratio(baseline_params: int, method_params: int) -> float:
    """Fraction of baseline parameters *removed* by the method (in [0, 1))."""
    if baseline_params <= 0:
        raise ValueError(
            f"baseline_params must be positive, got {baseline_params}"
        )
    if method_params < 0:
        raise ValueError(f"method_params must be >= 0, got {method_params}")
    return 1.0 - method_params / baseline_params


@dataclass(frozen=True)
class CompressionReport:
    """Parameter accounting for one model variant against a baseline."""

    method: str
    baseline_params: int
    method_params: int

    @property
    def ratio(self) -> float:
        """Compression ratio (fraction removed)."""
        return compression_ratio(self.baseline_params, self.method_params)

    def __str__(self) -> str:
        return (
            f"{self.method}: {self.method_params} params "
            f"({self.ratio:.1%} compression vs {self.baseline_params})"
        )
