"""Tests for the `python -m repro` command-line entry point."""


import pytest

from repro.__main__ import ARTEFACTS, SLOW, RunOptions, main

# renders every fast artefact end to end: excluded from the
# `-m "not slow"` fast loop (docs/VERIFICATION.md).
pytestmark = pytest.mark.slow


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ARTEFACTS:
            assert name in out

    def test_single_artefact(self, capsys):
        assert main(["table1"]) == 0
        assert "GC200" in capsys.readouterr().out

    def test_multiple_artefacts(self, capsys):
        assert main(["table1", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "A30" in out and "distance-free" in out

    def test_unknown_artefact_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_infinite_cell_timeout_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6", "--jobs", "2", "--cell-timeout", "inf"])
        assert "cell_timeout_s" in capsys.readouterr().err

    def test_out_directory(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(
            ["table1", "--out", str(tmp_path), "--cache-dir",
             str(cache_dir)]
        ) == 0
        written = tmp_path / "table1.txt"
        assert written.exists()
        assert "GC200" in written.read_text()

    def test_out_writes_manifest(self, tmp_path, capsys):
        from repro import obs

        cache_dir = tmp_path / "cache"
        assert main(
            ["fig5", "--out", str(tmp_path), "--cache-dir",
             str(cache_dir)]
        ) == 0
        manifest = obs.read_manifest(tmp_path / "fig5.json")
        assert manifest["name"] == "fig5"
        assert manifest["config"]["jobs"] == 1
        cache = manifest["cache"]
        assert cache["enabled"]
        assert cache["misses"] + cache["hits"] > 0

    def test_no_cache_flag(self, tmp_path, capsys):
        from repro import obs

        assert main(["fig5", "--out", str(tmp_path), "--no-cache"]) == 0
        manifest = obs.read_manifest(tmp_path / "fig5.json")
        assert "cache" not in manifest

    def test_all_excludes_slow_by_default(self):
        names = list(ARTEFACTS)
        fast = [n for n in names if n not in SLOW]
        # Sanity: the slow set is exactly the two training artefacts.
        assert SLOW == {"table4", "table5"}
        assert "fig6" in fast

    def test_every_fast_renderer_returns_text(self):
        opts = RunOptions()
        for name, artefact in ARTEFACTS.items():
            if artefact.slow or name in ("table2", "fig4", "fig6", "fig7"):
                continue  # slow-ish; covered by their own benches
            text = artefact.render(opts)
            assert isinstance(text, str) and len(text) > 50


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fuzz", "--seed", "-1", "--cases", "1"], "--seed"),
        (["fuzz", "--start", "-3"], "--start"),
        (["serve", "--seed", "-1"], "--seed"),
        (["chaos", "--seed", "-1", "--smoke", "--only", "executor"], "--seed"),
        (["serve", "--methods", ","], "--methods"),
    ],
    ids=["fuzz-seed", "fuzz-start", "serve-seed", "chaos-seed", "serve-methods"],
)
def test_bad_seed_or_empty_methods_is_a_usage_error(argv, flag, capsys):
    """Rejected by the parser (exit 2, naming the flag), not by numpy."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {flag} " in capsys.readouterr().err
