"""Delta-debugging: minimisation, signature stability, corpus I/O."""

import dataclasses
import importlib

import pytest

from repro.verify import (
    CORPUS_SCHEMA,
    generate_case,
    load_corpus,
    make_predicate,
    shrink,
    write_reproducer,
)
from repro.verify.gen import LayerSpec
from repro.verify.hooks import plant
from repro.verify.shrink import _candidates, _valid, describe


class TestCandidates:
    def test_candidates_are_strictly_simpler(self):
        case = generate_case(0, 1)
        for candidate in _candidates(case):
            assert candidate != case

    def test_single_layer_never_dropped(self):
        case = generate_case(0, 0)
        single = dataclasses.replace(case, layers=case.layers[:1])
        for candidate in _candidates(single):
            assert candidate.n_layers >= 1

    def test_validity_probe_rejects_out_of_range_exclusions(self):
        case = generate_case(0, 0)
        broken = dataclasses.replace(
            case, excluded_tiles=(case.n_tiles + 3,)
        )
        assert not _valid(broken)

    def test_validity_probe_rejects_unbuildable_models(self):
        case = generate_case(0, 0)
        broken = dataclasses.replace(
            case,
            in_features=7,
            layers=(LayerSpec(kind="fastfood"),),  # needs a power of two
        )
        assert not _valid(broken)


class TestShrink:
    def test_requires_a_failing_case(self):
        with pytest.raises(ValueError, match="fails the predicate"):
            shrink(generate_case(0, 0), lambda case: None)

    def test_planted_nesterov_shrinks_to_trivial_case(self):
        case = generate_case(0, 1)
        with plant("nesterov"):
            predicate = make_predicate("optimizer_reference")
            minimal, steps, detail = shrink(case, predicate)
        assert steps > 0
        assert minimal.n_layers <= 2
        assert minimal.batch == 1
        assert not minimal.run.faulted
        assert "nesterov" in detail

    def test_shrink_never_drifts_to_a_different_failure_kind(self):
        # The minimal case must fail the same way the original did: an
        # oracle disagreement must not be "simplified" into an
        # unrelated crash, or the stored reproducer stops reproducing
        # the original finding on the clean tree.
        case = generate_case(0, 4)
        predicate = make_predicate("optimizer_reference")
        with plant("nesterov"):
            minimal, _steps, detail = shrink(case, predicate)
        assert not detail.startswith("crash:")
        # And the minimal case passes once the plant is gone.
        assert predicate(minimal) is None

    def test_eval_budget_bounds_work(self, monkeypatch):
        # repro.verify re-exports the function under the module's name.
        monkeypatch.setattr(
            importlib.import_module("repro.verify.shrink"), "MAX_EVALS", 10
        )
        calls = 0

        def predicate(case):
            nonlocal calls
            calls += 1
            return "still failing"

        shrink(generate_case(0, 2), predicate)
        assert calls <= 12  # initial check + budgeted candidate evals


class TestCorpusIO:
    def test_write_load_round_trip(self, tmp_path):
        case = generate_case(0, 5)
        path = write_reproducer(
            tmp_path, case, "forward_dense", "detail text", 7,
            plant="nesterov",
        )
        entries = load_corpus(tmp_path)
        assert [p for p, _, _ in entries] == [path]
        _, entry, loaded = entries[0]
        assert entry["schema"] == CORPUS_SCHEMA
        assert entry["oracle"] == "forward_dense"
        assert entry["plant"] == "nesterov"
        assert entry["shrink_steps"] == 7
        assert loaded == case

    def test_unknown_schema_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="schema"):
            load_corpus(tmp_path)

    def test_describe_is_one_line(self):
        line = describe(generate_case(0, 3))
        assert "\n" not in line
        assert "tiles=" in line
