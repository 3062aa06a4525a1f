"""The append-only campaign database: cell states as an event log.

One JSONL file (``campaign.jsonl``) per campaign directory, layered
*over* :mod:`repro.tune.db`: the campaign log records cell lifecycle
events (``created`` → per-cell ``running`` → ``done``/``error``),
while the trial records themselves live in the ordinary per-machine
:class:`~repro.tune.db.TrialDB` namespaces, where
``CompilerOptions(tuned=True, machine=...)`` already looks.

State is *event-sourced*: a cell with no event is ``pending``; the
last event for a cell wins.  A ``running`` event with no later
``done``/``error`` means the process died mid-cell — on resume that
cell is claimable again, exactly like ``pending``.  ``done`` and
``error`` are terminal.  Appends are single lines flushed with fsync
(the same crash discipline as the trial DB and the serve manifest), so
a kill -9 can at worst lose the line being written, never corrupt an
earlier one; corrupt trailing lines are skipped and counted, never
served.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignError
from repro.store import append_lines, read_json_lines
from repro.tune.db import default_tune_dir

#: Cell lifecycle states (``pending`` is the absence of any event).
CELL_PENDING = "pending"
CELL_RUNNING = "running"
CELL_DONE = "done"
CELL_ERROR = "error"

#: Event types the log accepts.
EVENTS = ("created", CELL_RUNNING, CELL_DONE, CELL_ERROR)


def default_campaign_dir(
    cache_dir: Optional[Union[str, Path]] = None,
    fingerprint: str = "",
) -> Path:
    """Campaign state directory for one (cache root, spec) pair.

    Lives beside the tune directory so one ``--cache-dir`` carries the
    schedule cache, the trial history and the campaign state; the spec
    fingerprint keys the subdirectory so distinct campaigns never
    share an event log.
    """
    root = default_tune_dir(cache_dir).parent
    return root / "campaigns" / (fingerprint[:16] or "default")


def wall_bucket(seconds: float) -> str:
    """Coarse wall-clock bucket for a cell.

    Wall time is the one nondeterministic resultfield, so it is
    bucketed into labels stable under machine-load jitter and kept out
    of the byte-stable report rows.
    """
    if seconds < 1:
        return "<1s"
    if seconds < 10:
        return "1s-10s"
    if seconds < 60:
        return "10s-1m"
    if seconds < 600:
        return "1m-10m"
    return ">10m"


class CampaignDB:
    """Event log + state resolution for one campaign directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / "campaign.jsonl"
        #: Corrupt/unknown lines skipped during the last read.
        self.skipped_lines = 0

    # -- append side -------------------------------------------------

    def append(self, event: Dict) -> None:
        """Persist one event (one line, fsynced before returning)."""
        if event.get("event") not in EVENTS:
            raise CampaignError(
                f"unknown campaign event {event.get('event')!r}"
            )
        append_lines(self.path, [json.dumps(event, sort_keys=True)])

    def record_created(self, spec: CampaignSpec) -> None:
        self.append({
            "event": "created",
            "fingerprint": spec.fingerprint,
            "spec": spec.to_payload(),
        })

    def record_running(self, cell_id: str) -> None:
        self.append({"event": CELL_RUNNING, "cell": cell_id})

    def record_done(self, cell_id: str, result: Dict) -> None:
        self.append({"event": CELL_DONE, "cell": cell_id, **result})

    def record_error(self, cell_id: str, error: str) -> None:
        self.append({
            "event": CELL_ERROR, "cell": cell_id, "error": error,
        })

    # -- read side ---------------------------------------------------

    def events(self) -> List[Dict]:
        """All readable events in append order; corrupt lines skipped."""
        events, self.skipped_lines = read_json_lines(self.path)
        out: List[Dict] = []
        for event in events:
            if (
                not isinstance(event, dict)
                or event.get("event") not in EVENTS
            ):
                self.skipped_lines += 1
                continue
            out.append(event)
        return out

    def recorded_fingerprint(self) -> Optional[str]:
        """The spec fingerprint of the first ``created`` event."""
        for event in self.events():
            if event["event"] == "created":
                return event.get("fingerprint")
        return None

    def ensure_spec(self, spec: CampaignSpec) -> None:
        """Bind this log to ``spec``, or verify it already is.

        A fresh directory records the spec; an existing log must carry
        the same fingerprint — driving one campaign's database with a
        different grid would silently mislabel its cells.
        """
        recorded = self.recorded_fingerprint()
        if recorded is None:
            self.record_created(spec)
        elif recorded != spec.fingerprint:
            raise CampaignError(
                f"campaign directory {self.root} belongs to spec "
                f"{recorded[:16]}, not {spec.fingerprint[:16]}; "
                "use a fresh directory (or --fresh) to restart"
            )

    def cell_states(self, spec: CampaignSpec) -> Dict[str, Dict]:
        """Resolved per-cell state, keyed by cell id, in spec order.

        Each value has at least ``{"status": ...}``; ``done`` cells
        carry their resultfields, ``error`` cells their error string.
        """
        states: Dict[str, Dict] = {
            key.cell_id: {"status": CELL_PENDING}
            for key in spec.cells()
        }
        for event in self.events():
            kind = event["event"]
            if kind == "created":
                continue
            cell = event.get("cell")
            if cell not in states:
                self.skipped_lines += 1
                continue
            payload = {
                k: v for k, v in event.items()
                if k not in ("event", "cell")
            }
            states[cell] = {"status": kind, **payload}
        return states

    def claimable(self, spec: CampaignSpec) -> List[str]:
        """Cell ids a (re)run should execute: pending or interrupted.

        ``done`` and ``error`` are terminal — resume never re-claims
        them, which is what makes re-running after a crash safe.
        """
        return [
            cell_id
            for cell_id, state in self.cell_states(spec).items()
            if state["status"] in (CELL_PENDING, CELL_RUNNING)
        ]

    def stats(self, spec: CampaignSpec) -> Dict:
        """Health digest: per-state counts plus skipped-line count."""
        states = self.cell_states(spec)
        counts = {
            status: 0
            for status in (
                CELL_PENDING, CELL_RUNNING, CELL_DONE, CELL_ERROR
            )
        }
        for state in states.values():
            counts[state["status"]] += 1
        return {
            "path": str(self.path),
            "fingerprint": spec.fingerprint,
            "cells": len(states),
            "skipped_lines": self.skipped_lines,
            **counts,
        }

    def clear(self) -> None:
        """Delete the event log (a ``--fresh`` restart)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
