"""Crash-safe persistence shared by the on-disk stores.

One primitive so far: the durable JSONL append behind the trial DB
(:mod:`repro.tune.db`), the campaign event log (:mod:`repro.campaign.db`)
and the campaign's publish into the shared trial file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


def append_lines(path: Path, lines: Iterable[str]) -> None:
    """Append whole lines to a JSONL log; fsynced before returning.

    A kill -9 during an append can leave a final line without its
    newline.  The readers skip and count that corrupt line — but only
    if the *next* append does not merge with it, so a torn tail is
    closed first: one crash artefact never contaminates a good record.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as handle:
        handle.seek(0, 2)
        if handle.tell() > 0:
            handle.seek(handle.tell() - 1)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        for line in lines:
            handle.write(line.encode("utf-8") + b"\n")
        handle.flush()
        os.fsync(handle.fileno())
