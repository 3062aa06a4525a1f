"""Append-only trial database: every evaluation the tuner ever ran.

Modeled on experiment-tracking tables (one row per (configuration,
metric) evaluation, keyed by content fingerprint): a JSON-lines file
``trials.jsonl`` under the tune directory, one self-contained record
per line.  Appending is atomic at line granularity, so concurrent
searches interleave whole records rather than corrupting each other.

Every record carries a *schema* hash combining the tune-record layout
version with the machine-model schema of :mod:`repro.cache` — when the
ISA latencies, packet limits or pipeline timing change, every recorded
cycle count describes a machine that no longer exists, and
:meth:`TrialDB.best` silently ignores it (self-invalidation, the same
discipline the schedule cache applies).

Corrupt or stale lines are skipped and counted, never served, and
never abort a read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cache.fingerprint import schema_hash as machine_schema_hash
from repro.cache.store import default_cache_dir
from repro.errors import TuningError
from repro.machine.description import MachineDescription
from repro.store import append_lines, read_json_lines
from repro.tune.space import TrialConfig

_MachineArg = Optional[Union[str, "MachineDescription"]]

#: Bump when the record layout changes incompatibly.
#: v2: records carry the human-readable machine ``name`` alongside the
#: schema hash, so reports can print the target instead of an opaque
#: per-machine namespace.
TUNE_SCHEMA_VERSION = 2

#: Trial status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"


def tune_schema_hash(machine: _MachineArg = None) -> str:
    """Hash versioning every trial record.

    Covers the record layout and the machine description the cycle
    counts were measured on (per-target: records tuned for one machine
    are invisible to readers of another); recomputed per call so tests
    that monkeypatch the default machine model are observed.
    """
    descriptor = (
        f"tune-v{TUNE_SCHEMA_VERSION};{machine_schema_hash(machine)}"
    )
    return hashlib.sha256(descriptor.encode("utf-8")).hexdigest()


def default_tune_dir(
    cache_dir: Optional[Union[str, Path]] = None
) -> Path:
    """The trial-database directory for a given cache root.

    Lives alongside the schedule cache (``<cache_dir>/tune``) so one
    ``--cache-dir`` flag carries both the memoized schedules and the
    trial history; with no cache dir it falls back to the user-level
    cache root the schedule cache also uses.
    """
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return root / "tune"


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated (model, configuration) pair.

    ``cycles`` is the objective — total simulated cycles (packed
    schedules observed on the simulated machine plus layout-transform
    cycles).  ``fidelity`` is the operator-prefix size the trial
    compiled (``None`` = the full model); only full-fidelity records
    are eligible for :meth:`TrialDB.best`.
    """

    model: str
    fingerprint: str
    config: Dict
    status: str = STATUS_OK
    cycles: Optional[float] = None
    metrics: Dict = field(default_factory=dict)
    strategy: str = ""
    seed: int = 0
    trial: int = 0
    fidelity: Optional[int] = None
    error: Optional[str] = None
    schema: str = field(default_factory=tune_schema_hash)
    #: Human-readable machine name the cycles were simulated on.  The
    #: ``schema`` hash is what namespaces reads; the name is for
    #: reports, which otherwise could only print the opaque hash.
    machine: str = ""

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_ERROR):
            raise TuningError(f"unknown trial status {self.status!r}")
        if self.status == STATUS_OK and self.cycles is None:
            raise TuningError("an ok trial must record its cycles")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def full_fidelity(self) -> bool:
        return self.fidelity is None

    def trial_config(self) -> TrialConfig:
        return TrialConfig.from_payload(self.config)

    def to_payload(self) -> Dict:
        return {
            "model": self.model,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "status": self.status,
            "cycles": self.cycles,
            "metrics": self.metrics,
            "strategy": self.strategy,
            "seed": self.seed,
            "trial": self.trial,
            "fidelity": self.fidelity,
            "error": self.error,
            "schema": self.schema,
            "machine": self.machine,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "TrialRecord":
        try:
            return cls(
                model=payload["model"],
                fingerprint=payload["fingerprint"],
                config=payload["config"],
                status=payload["status"],
                cycles=payload.get("cycles"),
                metrics=payload.get("metrics", {}),
                strategy=payload.get("strategy", ""),
                seed=payload.get("seed", 0),
                trial=payload.get("trial", 0),
                fidelity=payload.get("fidelity"),
                error=payload.get("error"),
                schema=payload.get("schema", ""),
                machine=payload.get("machine", ""),
            )
        except (KeyError, TypeError) as exc:
            raise TuningError(
                f"malformed trial record: {exc}"
            ) from exc


class TrialDB:
    """The append-only JSONL store under one tune directory.

    ``machine`` namespaces reads: only records whose schema matches
    that machine's tune schema are served.  ``None`` follows the
    process-default machine description live.
    """

    def __init__(
        self, root: Union[str, Path], machine: _MachineArg = None
    ) -> None:
        self.root = Path(root)
        self.path = self.root / "trials.jsonl"
        self.machine = machine
        #: Lines skipped (corrupt or unparsable) during the last read.
        self.skipped_lines = 0

    def __len__(self) -> int:
        return len(self.records(current_only=False))

    def append(self, record: TrialRecord) -> None:
        """Persist one record (one line, flushed before returning)."""
        line = json.dumps(record.to_payload(), sort_keys=True)
        append_lines(self.path, [line])

    def records(
        self,
        model: Optional[str] = None,
        current_only: bool = True,
    ) -> List[TrialRecord]:
        """All readable records, optionally filtered to one model.

        ``current_only`` drops records written under a different
        schema (stale machine model or record layout).  Corrupt lines
        are counted in ``skipped_lines`` and skipped.
        """
        payloads, self.skipped_lines = read_json_lines(self.path)
        current = tune_schema_hash(self.machine)
        out: List[TrialRecord] = []
        for payload in payloads:
            try:
                record = TrialRecord.from_payload(payload)
            except TuningError:
                self.skipped_lines += 1
                continue
            if current_only and record.schema != current:
                self.skipped_lines += 1
                continue
            if model is not None and record.model != model:
                continue
            out.append(record)
        return out

    def best(self, model: str) -> Optional[TrialRecord]:
        """The winning full-fidelity trial for ``model``.

        Minimum simulated cycles among successful, current-schema,
        full-model records; ties break on fingerprint so the answer is
        stable across readers.
        """
        candidates = [
            r
            for r in self.records(model=model)
            if r.ok and r.full_fidelity and r.cycles is not None
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.cycles, r.fingerprint))

    def best_config(self, model: str) -> Optional[TrialConfig]:
        """The winning configuration, ready for ``CompilerOptions``."""
        record = self.best(model)
        return record.trial_config() if record is not None else None

    def models(self) -> List[str]:
        """Model names with at least one current-schema record."""
        return sorted({r.model for r in self.records()})

    def stats(self) -> Dict:
        """Health digest for status endpoints: usable vs skipped rows.

        ``skipped_lines`` counts corrupt or stale-schema lines found
        during the scan — a corrupted trial DB shows up here as
        degraded (fewer usable records) rather than as a failure.
        """
        records = self.records()
        return {
            "path": str(self.path),
            "records": len(records),
            "skipped_lines": self.skipped_lines,
            "models": sorted({r.model for r in records}),
        }

    def clear(self) -> int:
        """Delete the trial file; returns records removed."""
        removed = len(self.records(current_only=False))
        try:
            self.path.unlink()
        except FileNotFoundError:
            removed = 0
        except OSError:
            return 0
        return removed
