"""Unit tests for the cell journal: round-trips, corruption, keying."""

import numpy as np

from repro.guard import GridJournal
from repro.guard.journal import cell_key


def _worker_a(config, seed_seq):
    return config


def _worker_b(config, seed_seq):
    return config


def test_record_lookup_round_trip(tmp_path):
    journal = GridJournal(tmp_path)
    key = cell_key(_worker_a, seed=0, index=3, config=(64, "butterfly"))
    result = {"rows": [1.0, 2.0], "arr": np.arange(4.0)}
    metrics = [{"name": "m", "kind": "counter", "points": [[0, 1.0]]}]
    stats = {"hits": 2, "misses": 1}
    side = {"metrics": metrics, "cache": stats}
    journal.record(key, 3, (64, "butterfly"), result, side)

    assert key in journal
    entry = journal.lookup(key)
    assert entry is not None
    assert entry.index == 3
    assert entry.config == repr((64, "butterfly"))
    assert entry.result["rows"] == [1.0, 2.0]
    np.testing.assert_array_equal(entry.result["arr"], np.arange(4.0))
    assert entry.side["metrics"] == metrics
    assert entry.side["cache"] == stats
    assert journal.corrupt == 0
    assert len(journal) == 1


def test_missing_key_is_none(tmp_path):
    journal = GridJournal(tmp_path)
    assert journal.lookup("deadbeef") is None
    assert "deadbeef" not in journal
    assert journal.corrupt == 0


def test_key_depends_on_every_input():
    base = cell_key(_worker_a, seed=0, index=0, config=(64,))
    assert cell_key(_worker_a, seed=1, index=0, config=(64,)) != base
    assert cell_key(_worker_a, seed=0, index=1, config=(64,)) != base
    assert cell_key(_worker_a, seed=0, index=0, config=(65,)) != base
    assert cell_key(_worker_b, seed=0, index=0, config=(64,)) != base
    # Same inputs → same key (content addressing, not randomness).
    assert cell_key(_worker_a, seed=0, index=0, config=(64,)) == base


def test_truncated_entry_counts_corrupt_not_raise(tmp_path):
    journal = GridJournal(tmp_path)
    key = cell_key(_worker_a, seed=0, index=0, config=("x",))
    path = journal.record(key, 0, ("x",), [1.0], {})
    path.write_bytes(path.read_bytes()[: max(1, path.stat().st_size // 2)])
    assert journal.lookup(key) is None
    assert journal.corrupt == 1


def test_garbage_entry_counts_corrupt_not_raise(tmp_path):
    journal = GridJournal(tmp_path)
    key = cell_key(_worker_a, seed=0, index=0, config=("y",))
    (tmp_path / f"cell-{key}.npz").write_bytes(b"not a checkpoint")
    assert journal.lookup(key) is None
    assert journal.corrupt == 1


def test_keys_lists_entries_sorted(tmp_path):
    journal = GridJournal(tmp_path)
    keys = [
        cell_key(_worker_a, seed=0, index=i, config=(i,)) for i in range(3)
    ]
    for i, key in enumerate(keys):
        journal.record(key, i, (i,), i, {})
    assert journal.keys() == sorted(keys)


def test_empty_directory_ok(tmp_path):
    journal = GridJournal(tmp_path / "never-created")
    assert journal.keys() == []
    assert len(journal) == 0
