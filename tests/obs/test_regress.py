"""Tests for the perf-regression gate: tolerances, directions, CLI."""

import copy
import json
import math

import pytest

from repro import obs
from repro.obs.regress import (
    Tolerance,
    default_direction,
    flatten_metrics,
    parse_tolerance,
    regress,
)


def make_manifest(metrics) -> dict:
    return {"schema": "repro.run/1", "name": "t", "metrics": metrics}


def counter(name, value, **labels):
    return {
        "name": name, "type": "counter", "labels": labels, "value": value
    }


BASE = make_manifest(
    [
        counter("executor.compute_s", 1.0, graph="g"),
        counter("executor.exchange_bytes", 1000.0, graph="g"),
        {
            "name": "trainer.accuracy", "type": "gauge", "labels": {},
            "value": 0.9,
        },
        {
            "name": "executor.step_s", "type": "histogram",
            "labels": {"graph": "g"}, "count": 10, "sum": 2.0,
            "min": 0.1, "max": 0.5, "edges": [1.0],
            "bucket_counts": [10, 0],
        },
    ]
)


def perturbed(name, factor):
    manifest = copy.deepcopy(BASE)
    for entry in manifest["metrics"]:
        if entry["name"] == name:
            entry["value"] *= factor
    return manifest


class TestFlatten:
    def test_labels_in_key(self):
        flat = flatten_metrics(BASE)
        assert flat["executor.compute_s{graph=g}"] == 1.0
        assert flat["trainer.accuracy"] == 0.9

    def test_histogram_count_and_sum(self):
        flat = flatten_metrics(BASE)
        assert flat["executor.step_s{graph=g}.count"] == 10.0
        assert flat["executor.step_s{graph=g}.sum"] == 2.0


class TestDirections:
    def test_seconds_fail_on_increase(self):
        assert default_direction("executor.compute_s{graph=g}") == "increase"

    def test_accuracy_fails_on_decrease(self):
        assert default_direction("trainer.accuracy") == "decrease"

    def test_counts_fail_both_ways(self):
        assert default_direction("executor.step_s{graph=g}.count") == "both"


class TestRegress:
    def test_self_diff_clean(self):
        result = regress(BASE, BASE)
        assert result.ok
        assert all(d.rel_change == 0.0 for d in result.diffs)

    def test_ten_percent_slowdown_fails(self):
        result = regress(perturbed("executor.compute_s", 1.10), BASE)
        assert not result.ok
        (failure,) = result.failures
        assert failure.key == "executor.compute_s{graph=g}"
        assert failure.rel_change == pytest.approx(0.10)

    def test_speedup_passes_for_increase_direction(self):
        result = regress(perturbed("executor.compute_s", 0.5), BASE)
        assert result.ok

    def test_accuracy_drop_fails_gain_passes(self):
        assert not regress(perturbed("trainer.accuracy", 0.8), BASE).ok
        assert regress(perturbed("trainer.accuracy", 1.1), BASE).ok

    def test_within_tolerance_passes(self):
        result = regress(perturbed("executor.compute_s", 1.04), BASE)
        assert result.ok

    def test_missing_metric_is_regression(self):
        candidate = make_manifest(
            [m for m in BASE["metrics"] if m["name"] != "trainer.accuracy"]
        )
        result = regress(candidate, BASE)
        assert not result.ok
        assert any(d.status == "missing" for d in result.failures)

    def test_added_metric_is_informational(self):
        candidate = copy.deepcopy(BASE)
        candidate["metrics"].append(counter("new.metric", 5.0))
        result = regress(candidate, BASE)
        assert result.ok
        assert any(d.status == "added" for d in result.diffs)

    def test_user_rule_overrides_default(self):
        slow = perturbed("executor.compute_s", 1.10)
        loose = regress(
            slow, BASE, rules=(Tolerance("executor.compute_s*", 0.5),)
        )
        assert loose.ok
        skipped = regress(
            slow, BASE, rules=(Tolerance("executor.compute_s*", None),)
        )
        assert skipped.ok
        assert any(d.status == "ignored" for d in skipped.diffs)

    def test_default_rules_skip_trainer_wall_clock(self):
        base = make_manifest(
            [
                {
                    "name": "trainer.step_s", "type": "histogram",
                    "labels": {}, "count": 5, "sum": 1.0, "min": 0.1,
                    "max": 0.5, "edges": [1.0], "bucket_counts": [5, 0],
                }
            ]
        )
        candidate = copy.deepcopy(base)
        candidate["metrics"][0]["sum"] = 9.0  # 9x wall-clock noise
        result = regress(candidate, base)
        assert result.ok
        sums = [d for d in result.diffs if d.key.endswith(".sum")]
        assert sums[0].status == "ignored"

    def test_zero_baseline_increase_is_infinite_change(self):
        base = make_manifest([counter("executor.retry_s", 0.0)])
        candidate = make_manifest([counter("executor.retry_s", 1.0)])
        result = regress(candidate, base)
        assert not result.ok

    @pytest.mark.parametrize("side", ["candidate", "baseline"])
    @pytest.mark.parametrize("name", [
        "executor.compute_s", "executor.exchange_bytes", "trainer.accuracy",
    ])
    def test_nan_metric_regresses(self, side, name):
        # Every comparison with NaN is False: a NaN must not read "ok",
        # whichever way the metric's gate points.
        nan = perturbed(name, math.nan)
        candidate, baseline = (nan, BASE) if side == "candidate" else (BASE, nan)
        result = regress(candidate, baseline)
        assert not result.ok
        (failure,) = result.failures
        assert failure.key.startswith(name)

    @pytest.mark.parametrize("name", ["executor.retry_s", "trainer.accuracy"])
    def test_nan_over_zero_baseline_regresses(self, name):
        base = make_manifest([counter(name, 0.0)])
        candidate = make_manifest([counter(name, math.nan)])
        assert not regress(candidate, base).ok

    def test_render_mentions_failures(self):
        result = regress(perturbed("executor.compute_s", 1.10), BASE)
        text = result.render()
        assert "REGRESSED" in text and "FAIL" in text
        assert "executor.compute_s{graph=g}" in text
        ok_text = regress(BASE, BASE).render()
        assert "PASS" in ok_text


class TestParseTolerance:
    def test_number(self):
        tol = parse_tolerance("executor.*=0.25")
        assert tol.pattern == "executor.*"
        assert tol.rel == 0.25

    def test_none(self):
        assert parse_tolerance("x=none").rel is None

    def test_bad_specs(self):
        for spec in ("nope", "=0.1", "x=abc", "x=-0.5", "x=nan"):
            with pytest.raises(ValueError):
                parse_tolerance(spec)


class TestRegressCLI:
    def write(self, tmp_path, name, manifest):
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_exit_zero_on_self_diff(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self.write(tmp_path, "a.json", BASE)
        assert main(["regress", path, path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_one_on_injected_slowdown(self, tmp_path, capsys):
        from repro.__main__ import main

        base = self.write(tmp_path, "base.json", BASE)
        slow = self.write(
            tmp_path, "slow.json", perturbed("executor.compute_s", 1.10)
        )
        assert main(["regress", slow, base]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_exit_one_on_nan_metric(self, tmp_path, capsys):
        # read_manifest accepts NaN from any file (json.loads does).
        from repro.__main__ import main

        base = self.write(tmp_path, "base.json", BASE)
        nan = self.write(
            tmp_path, "nan.json", perturbed("executor.compute_s", math.nan)
        )
        assert main(["regress", nan, base]) == 1
        assert main(["regress", base, nan]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_exit_two_on_missing_manifest(self, tmp_path, capsys):
        from repro.__main__ import main

        base = self.write(tmp_path, "base.json", BASE)
        assert main(["regress", base, str(tmp_path / "gone.json")]) == 2

    def test_cli_tolerance_flag(self, tmp_path):
        from repro.__main__ import main

        base = self.write(tmp_path, "base.json", BASE)
        slow = self.write(
            tmp_path, "slow.json", perturbed("executor.compute_s", 1.10)
        )
        assert (
            main(["regress", slow, base, "--tol", "executor.*=0.5"]) == 0
        )
        assert main(["regress", slow, base, "--tol", "bad"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "-1"])
    def test_exit_two_on_bad_default_tol(self, tmp_path, capsys, bad):
        from repro.__main__ import main

        base = self.write(tmp_path, "base.json", BASE)
        slow = self.write(
            tmp_path, "slow.json", perturbed("executor.compute_s", 10.0)
        )
        assert main(["regress", slow, base, "--default-tol", bad]) == 2
        assert "default tolerance must be >= 0" in capsys.readouterr().err
