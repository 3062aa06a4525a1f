"""Tests for the append-only trial database (repro.tune.db)."""

import json

import pytest

from repro.errors import TuningError
from repro.tune import (
    DEFAULT_TRIAL_CONFIG,
    TrialConfig,
    TrialDB,
    TrialRecord,
    default_tune_dir,
    tune_schema_hash,
)
from repro.tune import db as db_mod


def _record(
    cycles=100.0,
    model="wdsr_b",
    config=None,
    status="ok",
    fidelity=None,
    **kwargs,
):
    config = config or DEFAULT_TRIAL_CONFIG
    return TrialRecord(
        model=model,
        fingerprint=config.fingerprint,
        config=config.to_payload(),
        status=status,
        cycles=cycles,
        fidelity=fidelity,
        **kwargs,
    )


class TestTrialRecord:
    def test_unknown_status_rejected(self):
        with pytest.raises(TuningError, match="status"):
            _record(status="maybe")

    def test_ok_without_cycles_rejected(self):
        with pytest.raises(TuningError, match="cycles"):
            _record(cycles=None)

    def test_error_record_allows_missing_cycles(self):
        record = _record(
            cycles=None, status="error", error="BudgetExceeded: boom"
        )
        assert not record.ok
        assert record.error == "BudgetExceeded: boom"

    def test_payload_round_trip(self):
        record = _record(
            cycles=42.0, strategy="random", seed=7, trial=3,
            metrics={"stall_cycles": 5},
        )
        again = TrialRecord.from_payload(
            json.loads(json.dumps(record.to_payload()))
        )
        assert again == record

    def test_trial_config_rebuilds(self):
        config = TrialConfig(max_operators=17)
        record = _record(config=config)
        assert record.trial_config() == config

    def test_malformed_payload_rejected(self):
        with pytest.raises(TuningError, match="malformed"):
            TrialRecord.from_payload({"model": "x"})


class TestTrialDB:
    def test_append_and_read_back(self, tmp_path):
        db = TrialDB(tmp_path)
        db.append(_record(cycles=10.0, trial=0))
        db.append(_record(cycles=20.0, model="fst", trial=1))
        assert len(db) == 2
        assert [r.model for r in db.records()] == ["wdsr_b", "fst"]
        assert len(db.records(model="fst")) == 1
        assert db.models() == ["fst", "wdsr_b"]

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        db = TrialDB(tmp_path)
        db.append(_record())
        with open(db.path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"model": "half a record"}\n')
        assert len(db.records()) == 1
        assert db.skipped_lines == 2

    def test_append_after_a_torn_tail_loses_only_the_torn_record(
        self, tmp_path
    ):
        # A kill -9 mid-append leaves a final line without its newline;
        # the next append must not be glued onto it.
        db = TrialDB(tmp_path)
        db.append(_record(cycles=1.0, trial=0))
        db.append(_record(cycles=2.0, trial=1))
        with open(db.path, "r+b") as handle:
            handle.truncate(db.path.stat().st_size - 40)
        db.append(_record(cycles=3.0, trial=2))
        assert [r.cycles for r in db.records()] == [1.0, 3.0]
        assert db.skipped_lines == 1

    def test_stale_schema_invalidated(self, tmp_path):
        db = TrialDB(tmp_path)
        db.append(_record(schema="0" * 64))
        db.append(_record(cycles=5.0))
        current = db.records()
        assert [r.cycles for r in current] == [5.0]
        assert db.skipped_lines == 1
        # The stale record is still physically present.
        assert len(db.records(current_only=False)) == 2

    def test_schema_hash_tracks_machine_model(self, monkeypatch):
        before = tune_schema_hash()
        monkeypatch.setattr(db_mod, "TUNE_SCHEMA_VERSION", 999)
        assert tune_schema_hash() != before

    def test_best_minimizes_cycles(self, tmp_path):
        db = TrialDB(tmp_path)
        db.append(_record(cycles=30.0))
        db.append(_record(cycles=10.0, config=TrialConfig(max_operators=9)))
        db.append(_record(cycles=20.0, config=TrialConfig(max_operators=17)))
        best = db.best("wdsr_b")
        assert best.cycles == 10.0
        assert db.best_config("wdsr_b") == TrialConfig(max_operators=9)

    def test_best_ignores_errors_and_partial_fidelity(self, tmp_path):
        db = TrialDB(tmp_path)
        db.append(_record(
            cycles=None, status="error", error="boom",
            config=TrialConfig(max_operators=9),
        ))
        db.append(_record(
            cycles=1.0, fidelity=4,
            config=TrialConfig(max_operators=17),
        ))
        db.append(_record(cycles=50.0))
        best = db.best("wdsr_b")
        assert best.cycles == 50.0
        assert best.full_fidelity

    def test_best_tie_breaks_on_fingerprint(self, tmp_path):
        db = TrialDB(tmp_path)
        a, b = TrialConfig(max_operators=9), TrialConfig(max_operators=17)
        db.append(_record(cycles=10.0, config=a))
        db.append(_record(cycles=10.0, config=b))
        expected = min(a.fingerprint, b.fingerprint)
        assert db.best("wdsr_b").fingerprint == expected

    def test_best_on_empty_db(self, tmp_path):
        db = TrialDB(tmp_path)
        assert db.best("wdsr_b") is None
        assert db.best_config("wdsr_b") is None

    def test_clear(self, tmp_path):
        db = TrialDB(tmp_path)
        db.append(_record())
        assert db.clear() == 1
        assert db.records() == []
        assert db.clear() == 0

    def test_default_tune_dir_nests_under_cache_dir(self, tmp_path):
        assert default_tune_dir(tmp_path) == tmp_path / "tune"
        # With no explicit root it falls back to the user cache root.
        from repro.cache.store import default_cache_dir

        assert default_tune_dir() == default_cache_dir() / "tune"
