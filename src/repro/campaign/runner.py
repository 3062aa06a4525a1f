"""Campaign execution: bounded-parallel cells over ``tune.search``.

Each claimed cell runs one deterministic :func:`~repro.tune.run_search`
into a *staging* trial DB under the campaign directory, then publishes
the staged records into the shared per-machine trial database with
exact-line deduplication.  That two-step dance is what makes resume
crash-safe without a transaction log:

* searches are deterministic in (model, space, strategy, seed,
  machine), so re-running an interrupted cell regenerates byte-for-byte
  the same trial lines;
* publishing appends only lines the shared DB does not already
  contain, so a cell killed after a partial publish re-publishes just
  the missing tail — never a duplicate;
* the ``done`` event is appended only after the publish completes, so
  a cell is terminal only once its trials are durable where
  ``CompilerOptions(tuned=True, machine=...)`` reads them.

Cells are isolated: any :class:`Exception` inside one cell records an
``error`` event and the campaign moves on.  ``BaseException``
(``KeyboardInterrupt``, a test fault hook simulating a crash)
propagates and aborts the run — exactly the situation resume exists
for.  ``--jobs`` bounds *cell* parallelism with threads; each cell's
search runs single-process underneath so worker pools never nest.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.campaign.db import (
    CELL_DONE,
    CELL_ERROR,
    CampaignDB,
    default_campaign_dir,
    wall_bucket,
)
from repro.campaign.spec import CampaignSpec, CellKey
from repro.errors import CampaignError
from repro.store import append_lines
from repro.tune.db import TrialDB, default_tune_dir, tune_schema_hash

#: Fault-hook stages, in per-cell order.  Hooks exist for tests: a
#: hook that raises a ``BaseException`` (not ``Exception``) simulates
#: a crash at a precise point in the cell lifecycle.
HOOK_STAGES = ("claim", "searched", "published")

#: Serializes publishes into the shared trial file so concurrent
#: cells cannot interleave inside the read-check-append window.
_PUBLISH_LOCK = threading.Lock()


def publish_trials(staging_path: Path, shared_path: Path) -> int:
    """Append staged trial lines the shared DB lacks; returns count.

    Exact-line set difference: deterministic searches regenerate
    identical lines on re-run, so anything already present is a
    resume replay, not new data.
    """
    try:
        staged = [
            line for line in staging_path.read_text().splitlines()
            if line.strip()
        ]
    except OSError:
        return 0
    with _PUBLISH_LOCK:
        try:
            existing = set(shared_path.read_text().splitlines())
        except OSError:
            existing = set()
        fresh = [line for line in staged if line not in existing]
        if not fresh:
            return 0
        append_lines(shared_path, fresh)
    return len(fresh)


def execute_cell(
    cell: CellKey,
    campaign_dir: Path,
    cache_dir: Optional[str],
    fault_hook: Optional[Callable[[str, str], None]] = None,
) -> Dict:
    """Run one cell end to end; returns its ``done`` resultfields.

    Raises on failure (the caller turns that into an ``error`` event).
    """
    from repro.tune import run_search

    started = time.monotonic()

    def hook(stage: str) -> None:
        if fault_hook is not None:
            fault_hook(stage, cell.cell_id)

    staging = TrialDB(
        campaign_dir / "cells" / cell.cell_id, machine=cell.machine
    )
    # Staging is scratch: a re-claimed cell starts clean so its file
    # is exactly one deterministic search's output, never two stacked.
    try:
        staging.path.unlink()
    except FileNotFoundError:
        pass
    result = run_search(
        cell.model,
        strategy=cell.strategy,
        trials=cell.trials,
        seed=cell.seed,
        jobs=1,
        cache_dir=cache_dir,
        db=staging,
        machine=cell.machine,
    )
    hook("searched")
    shared = TrialDB(default_tune_dir(cache_dir), machine=cell.machine)
    published = publish_trials(staging.path, shared.path)
    hook("published")
    best = result.best
    baseline = result.baseline
    if best is None:
        raise CampaignError(
            f"no trial compiled successfully for cell {cell.cell_id}"
        )
    return {
        **cell.to_payload(),
        "schema": tune_schema_hash(cell.machine)[:16],
        "default_cycles": baseline.cycles if baseline else None,
        "best_cycles": best.cycles,
        "best_fingerprint": best.fingerprint,
        "speedup": result.speedup,
        "trial_count": len(result.records),
        "published": published,
        "wall_bucket": wall_bucket(time.monotonic() - started),
    }


def run_campaign(
    spec: CampaignSpec,
    campaign_dir: Optional[Union[str, Path]] = None,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
    fresh: bool = False,
    fault_hook: Optional[Callable[[str, str], None]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Execute (or resume) a campaign; returns a summary digest.

    Claims every ``pending`` cell plus every ``running`` cell whose
    process evidently died mid-flight; ``done`` and ``error`` cells
    are never re-claimed, so re-running the same command after an
    interruption finishes exactly the remaining work.
    """
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise CampaignError(f"jobs must be an int >= 1, got {jobs!r}")
    campaign_dir = Path(
        campaign_dir
        if campaign_dir is not None
        else default_campaign_dir(cache_dir, spec.fingerprint)
    )
    db = CampaignDB(campaign_dir)
    if fresh:
        db.clear()
    db.ensure_spec(spec)
    claim = db.claimable(spec)
    total = len(spec.cells())
    emit = progress if progress is not None else (lambda message: None)
    emit(
        f"campaign {spec.fingerprint[:16]}: {total} cell(s), "
        f"{total - len(claim)} already finished, {len(claim)} to run"
    )

    def run_cell(cell_id: str) -> str:
        cell = spec.cell(cell_id)
        db.record_running(cell_id)
        if fault_hook is not None:
            fault_hook("claim", cell_id)
        try:
            result = execute_cell(
                cell, campaign_dir, cache_dir, fault_hook
            )
        except Exception as exc:  # noqa: BLE001 — cell isolation
            db.record_error(cell_id, f"{type(exc).__name__}: {exc}")
            emit(f"cell {cell_id}: error ({type(exc).__name__}: {exc})")
            return CELL_ERROR
        db.record_done(cell_id, result)
        emit(
            f"cell {cell_id}: done "
            f"(best {result['best_cycles']:.0f} cycles, "
            f"{result['trial_count']} trials, "
            f"{result['published']} published)"
        )
        return CELL_DONE

    outcomes = []
    if jobs > 1 and len(claim) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_cell, claim))
    else:
        outcomes = [run_cell(cell_id) for cell_id in claim]

    return {
        "fingerprint": spec.fingerprint,
        "campaign_dir": str(campaign_dir),
        "cells": total,
        "claimed": len(claim),
        "done": outcomes.count(CELL_DONE),
        "error": outcomes.count(CELL_ERROR),
        "skipped": total - len(claim),
    }
