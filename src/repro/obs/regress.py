"""Perf-regression gate: diff two ``repro.run/1`` manifests.

The gate flattens each manifest's ``metrics`` section into scalar keys
(``name{label=value,...}`` for counters/gauges; ``....count`` /
``....sum`` for histograms), pairs them up, and checks every pair
against a **relative tolerance** resolved per metric:

1. user rules (``--tol PATTERN=REL``, first match wins; ``REL=none``
   ignores the metric),
2. built-in default rules (host wall-clock metrics are not gated — they
   are inherently noisy),
3. the default tolerance with a direction inferred from the name:
   seconds/bytes/loss/retries fail on *increase*, accuracy fails on
   *decrease*, structural counts fail on any change.

A metric present in the baseline but missing from the candidate is a
regression (silent metric loss must not pass CI); a metric only in the
candidate is informational.  A manifest diffed against itself is always
clean.  Exit-code semantics (``python -m repro regress A B``): 0 pass,
1 regression, 2 usage/manifest error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatchcase

__all__ = [
    "Tolerance",
    "MetricDiff",
    "RegressionResult",
    "DEFAULT_TOLERANCE",
    "DEFAULT_RULES",
    "flatten_metrics",
    "parse_tolerance",
    "default_direction",
    "regress",
]

#: Relative tolerance applied when no rule matches a metric.
DEFAULT_TOLERANCE = 0.05

#: Direction sentinel: resolve from the metric name at comparison time.
AUTO = "auto"


@dataclass(frozen=True)
class Tolerance:
    """One tolerance rule: a glob over flattened keys.

    ``rel=None`` excludes matching metrics from the gate entirely;
    ``direction`` is ``"increase"`` (fail when the candidate exceeds
    baseline by more than ``rel``), ``"decrease"``, ``"both"``, or
    ``"auto"`` (infer from the metric name).  A NaN or negative ``rel``
    raises :class:`ValueError`: every comparison against NaN is False,
    so it would pass any regression.
    """

    pattern: str
    rel: float | None
    direction: str = AUTO

    def __post_init__(self) -> None:
        if self.rel is not None and not self.rel >= 0:
            raise ValueError(f"tolerance must be >= 0, got {self.rel}")


#: Built-in rules, consulted after user rules.  Host wall-clock metrics
#: vary run-to-run by scheduler noise, so they are reported but not
#: gated unless a user rule opts them in.
DEFAULT_RULES = (
    Tolerance("trainer.step_s{*", None),
    Tolerance("trainer.epoch_s{*", None),
    Tolerance("trainer.step_s.*", None),
    Tolerance("trainer.epoch_s.*", None),
)


@dataclass(frozen=True)
class MetricDiff:
    """Outcome of comparing one flattened metric."""

    key: str
    baseline: float | None
    candidate: float | None
    rel_change: float | None
    tol: float | None
    direction: str
    #: "ok" | "regressed" | "ignored" | "missing" | "added"
    status: str


@dataclass
class RegressionResult:
    """All metric diffs of one gate run."""

    candidate_name: str
    baseline_name: str
    diffs: list[MetricDiff]

    @property
    def failures(self) -> list[MetricDiff]:
        return [
            d for d in self.diffs if d.status in ("regressed", "missing")
        ]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        counts = {
            "ok": 0, "regressed": 0, "ignored": 0, "missing": 0, "added": 0
        }
        for d in self.diffs:
            counts[d.status] += 1
        return counts

    def render(self, show_all: bool = False) -> str:
        lines = [
            f"regress: {self.candidate_name} vs baseline "
            f"{self.baseline_name}"
        ]
        shown = self.diffs if show_all else self.failures
        for d in shown:
            if d.status == "missing":
                lines.append(
                    f"  MISSING   {d.key}  (baseline {d.baseline:g}, "
                    "absent from candidate)"
                )
                continue
            if d.status == "added":
                lines.append(
                    f"  added     {d.key} = {d.candidate:g} "
                    "(not in baseline)"
                )
                continue
            change = (
                f"{d.rel_change:+.2%}" if d.rel_change is not None else "?"
            )
            tol = f"{d.tol:.2%} {d.direction}" if d.tol is not None else "-"
            tag = {
                "regressed": "REGRESSED", "ok": "ok", "ignored": "ignored"
            }[d.status]
            lines.append(
                f"  {tag:<9s} {d.key}  {d.baseline:g} -> "
                f"{d.candidate:g}  ({change}, tol {tol})"
            )
        c = self.counts()
        lines.append(
            f"  {len(self.diffs)} metrics: {c['ok']} ok, "
            f"{c['regressed']} regressed, {c['missing']} missing, "
            f"{c['ignored']} ignored, {c['added']} added"
        )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _flat_key(entry: dict) -> str:
    labels = entry.get("labels") or {}
    if labels:
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return f"{entry['name']}{{{inner}}}"
    return entry["name"]


def flatten_metrics(manifest: dict) -> dict[str, float]:
    """Flatten a manifest's metrics section into scalar key/value pairs."""
    flat: dict[str, float] = {}
    for entry in manifest.get("metrics", []):
        key = _flat_key(entry)
        if entry["type"] in ("counter", "gauge"):
            flat[key] = float(entry["value"])
        elif entry["type"] == "histogram":
            flat[f"{key}.count"] = float(entry["count"])
            flat[f"{key}.sum"] = float(entry["sum"])
    return flat


def parse_tolerance(spec: str) -> Tolerance:
    """Parse a ``PATTERN=REL`` CLI spec (``REL`` may be ``none``)."""
    pattern, sep, rel = spec.partition("=")
    if not sep or not pattern:
        raise ValueError(
            f"tolerance spec {spec!r} is not of the form PATTERN=REL"
        )
    if rel.lower() in ("none", "skip", "ignore"):
        return Tolerance(pattern, None)
    try:
        value = float(rel)
    except ValueError:
        raise ValueError(
            f"tolerance {rel!r} in {spec!r} is not a number or 'none'"
        ) from None
    return Tolerance(pattern, value)


def default_direction(key: str) -> str:
    """Failure direction inferred from a flattened metric key."""
    name = key.split("{", 1)[0]
    if key.endswith(".count"):
        return "both"  # structural counts: any drift is suspicious
    if "accuracy" in name:
        return "decrease"
    if (
        name.endswith(("_s", "_bytes"))
        or "loss" in name
        or "retries" in name
        or "fatal" in name
    ):
        return "increase"
    return "both"


def _resolve(
    key: str,
    rules: tuple[Tolerance, ...],
    default_tol: float,
) -> tuple[float | None, str]:
    """(tolerance, direction) for *key*: first matching rule wins."""
    for rule in rules:
        if fnmatchcase(key, rule.pattern):
            direction = (
                default_direction(key)
                if rule.direction == AUTO
                else rule.direction
            )
            return rule.rel, direction
    return default_tol, default_direction(key)


def _rel_change(baseline: float, candidate: float) -> float:
    """Relative change; NaN when either side is NaN."""
    if baseline == candidate:
        return 0.0
    if baseline == 0:
        return candidate * math.inf  # +-inf, NaN for a NaN candidate
    return (candidate - baseline) / abs(baseline)


def _violates(rel_change: float, tol: float, direction: str) -> bool:
    # Each test is "not within bounds", so a NaN change always violates.
    if direction == "increase":
        return not rel_change <= tol
    if direction == "decrease":
        return not rel_change >= -tol
    return not abs(rel_change) <= tol


def regress(
    candidate: dict,
    baseline: dict,
    rules: "tuple[Tolerance, ...] | list[Tolerance]" = (),
    default_tol: float = DEFAULT_TOLERANCE,
) -> RegressionResult:
    """Gate *candidate* against *baseline*; both are manifest dicts.

    *rules* (user rules) are consulted before :data:`DEFAULT_RULES`;
    unmatched metrics get *default_tol* with an auto direction.  A NaN
    or negative *default_tol* raises :class:`ValueError`.  A gated metric
    that is NaN in either manifest regresses.
    """
    if not default_tol >= 0:  # also rejects NaN
        raise ValueError(f"default tolerance must be >= 0, got {default_tol}")
    all_rules = tuple(rules) + DEFAULT_RULES
    base_flat = flatten_metrics(baseline)
    cand_flat = flatten_metrics(candidate)
    diffs: list[MetricDiff] = []
    for key in sorted(base_flat):
        base_value = base_flat[key]
        tol, direction = _resolve(key, all_rules, default_tol)
        if key not in cand_flat:
            diffs.append(
                MetricDiff(key, base_value, None, None, tol, direction,
                           "ignored" if tol is None else "missing")
            )
            continue
        cand_value = cand_flat[key]
        rel = _rel_change(base_value, cand_value)
        if tol is None:
            status = "ignored"
        elif _violates(rel, tol, direction):
            status = "regressed"
        else:
            status = "ok"
        diffs.append(
            MetricDiff(
                key, base_value, cand_value, rel, tol, direction, status
            )
        )
    for key in sorted(set(cand_flat) - set(base_flat)):
        diffs.append(
            MetricDiff(key, None, cand_flat[key], None, None, "both",
                       "added")
        )
    return RegressionResult(
        candidate_name=candidate.get("name", "candidate"),
        baseline_name=baseline.get("name", "baseline"),
        diffs=diffs,
    )
