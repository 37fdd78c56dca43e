"""Atomic checkpoints: roundtrip, rotation, corruption fallback."""

import gc
import warnings

import numpy as np
import pytest

from repro.faults.checkpoint import (
    CheckpointError,
    CheckpointManager,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def arrays():
    rng = np.random.default_rng(0)
    return {
        "model/w": rng.normal(size=(4, 4)),
        "opt/velocity/0": rng.normal(size=(4, 4)).astype(np.float32),
    }


META = {"epoch": 2, "step_in_epoch": 7, "rng": {"state": 123456789}}


class TestSaveLoad:
    def test_roundtrip_bitexact(self, tmp_path, arrays):
        path = save_checkpoint(tmp_path / "c.npz", arrays, META)
        loaded, meta = load_checkpoint(path)
        assert meta == META
        assert set(loaded) == set(arrays)
        for key in arrays:
            np.testing.assert_array_equal(loaded[key], arrays[key])
            assert loaded[key].dtype == arrays[key].dtype

    def test_no_temp_file_left_behind(self, tmp_path, arrays):
        save_checkpoint(tmp_path / "c.npz", arrays, META)
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(
                tmp_path / "c.npz", {"__meta__": np.zeros(1)}, {}
            )

    def test_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_truncated_file_is_clean_error(self, tmp_path, arrays):
        path = save_checkpoint(tmp_path / "c.npz", arrays, META)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_truncated_file_leaves_no_open_handle(self, tmp_path, arrays):
        # The journal, the cache's disk tier and the manager's fallback
        # all shrug off corrupt files, so each one must not leak its fd.
        path = save_checkpoint(tmp_path / "c.npz", arrays, META)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            gc.collect()
        leaked = [w for w in caught if w.category is ResourceWarning]
        assert not leaked, [str(w.message) for w in leaked]

    def test_garbage_file_is_clean_error(self, tmp_path):
        path = tmp_path / "c.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)


class TestManager:
    def test_rotation_keeps_newest(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in (5, 10, 15, 20):
            manager.save(step, arrays, META)
        steps = [manager.step_of(p) for p in manager.checkpoints()]
        assert steps == [15, 20]

    def test_load_latest_none_when_empty(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None
        assert CheckpointManager(tmp_path / "missing").load_latest() is None

    def test_load_latest_returns_newest(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(1, arrays, {"cursor": 1})
        manager.save(9, arrays, {"cursor": 9})
        step, _, meta = manager.load_latest()
        assert step == 9
        assert meta["cursor"] == 9

    def test_corrupt_latest_falls_back_to_previous(self, tmp_path, arrays):
        """The satellite scenario: a truncated newest checkpoint must not
        take the run down — resume falls back to its predecessor."""
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(10, arrays, {"cursor": 10})
        newest = manager.save(20, arrays, {"cursor": 20})
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 3])
        step, loaded, meta = manager.load_latest()
        assert step == 10
        assert meta["cursor"] == 10
        np.testing.assert_array_equal(loaded["model/w"], arrays["model/w"])

    def test_all_corrupt_raises(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path, keep=3)
        for step in (1, 2):
            path = manager.save(step, arrays, META)
            path.write_bytes(b"junk")
        with pytest.raises(CheckpointError, match="all checkpoints"):
            manager.load_latest()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(tmp_path, keep=-1)
        with pytest.raises(ValueError, match="step"):
            CheckpointManager(tmp_path).save(-1, {}, {})

    def test_foreign_files_ignored(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path, keep=2)
        (tmp_path).mkdir(exist_ok=True)
        (tmp_path / "notes.txt").write_text("hello")
        manager.save(3, arrays, META)
        assert len(manager.checkpoints()) == 1
