"""Crash-safe persistence shared by the on-disk stores.

Three primitives.  :func:`append_lines` is the durable JSONL append
behind the trial DB (:mod:`repro.tune.db`), the campaign event log
(:mod:`repro.campaign.db`) and the campaign's publish into the shared
trial file; :func:`read_json_lines` is the corrupt-line-counting read of
those same logs.  :func:`write_atomic` is the replace-style write behind
the schedule cache's entries (:mod:`repro.cache.store`) and the serve
registry's manifest (:mod:`repro.serve.registry`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, List, Tuple


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


def read_json_lines(path: Path) -> Tuple[List[object], int]:
    """``(objects, corrupt_count)``: every line of a JSONL log that
    parses, in file order, and how many did not.

    A torn tail or a garbled middle line costs that line only —
    bytes that are not UTF-8 included: they decode to U+FFFD, which
    no JSON line survives.  A missing or unreadable file reads as
    empty; blank lines are not counted.  Whether a parsed object is a
    *valid record* is the caller's schema to judge.
    """
    if not path.is_file():
        return [], 0
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return [], 0
    objects: List[object] = []
    corrupt = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            objects.append(json.loads(line))
        except json.JSONDecodeError:
            corrupt += 1
    return objects, corrupt


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so a reader sees the old file or
    the new one, never a torn one; raises ``OSError``.

    The temporary file lives in the target directory (which must
    exist), so the final ``os.replace`` is a same-filesystem rename,
    and it is removed if anything before the rename fails.  Not
    fsynced: a crash may lose the write, never corrupt the file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
