"""One fault matrix over the four on-disk stores.

The trial DB and the campaign log are JSONL files over
``repro.store.append_lines`` / ``read_json_lines``; the schedule cache's
entries and the serve registry's manifest are whole files replaced
through ``repro.store.write_atomic``.  Whatever the format, the same
four faults must cost at most the damaged item, never the store: a torn
tail, a corrupt item in the middle, an unwritable directory, a ``.tmp``
left behind by a crash.  (The per-store suites — ``test_tune_db``,
``test_campaign_db``, ``test_cache_failures``, ``test_serve_service`` —
keep the store-specific detail.)
"""

import json

import pytest

from repro.cache.store import DiskStore, ScheduleEntry
from repro.campaign.db import CampaignDB
from repro.core.packing import PACKERS
from repro.isa.instructions import Instruction, Opcode
from repro.machine.pipeline import schedule_cycles
from repro.serve.registry import ModelEntry, ModelRegistry
from repro.store import read_json_lines, write_atomic
from repro.tune.db import TrialDB, TrialRecord
from repro.tune.space import DEFAULT_TRIAL_CONFIG

GARBAGE = b"\x00\xffnot json at all{{{\n"


class _Trials:
    """``trials.jsonl``: item ``i`` is a trial of model ``m<i>``."""

    jsonl = True

    def __init__(self, root):
        self.db = TrialDB(root)
        self.dir, self.file = self.db.root, self.db.path

    def write(self, i):
        self.db.append(
            TrialRecord(
                model=f"m{i}",
                fingerprint=DEFAULT_TRIAL_CONFIG.fingerprint,
                config=DEFAULT_TRIAL_CONFIG.to_payload(),
                status="ok",
                cycles=100.0 + i,
            )
        )

    def read(self):
        records = self.db.records(current_only=False)
        return sorted(int(r.model[1:]) for r in records)


class _Campaign:
    """``campaign.jsonl``: item ``i`` is cell ``c<i>`` starting."""

    jsonl = True

    def __init__(self, root):
        self.db = CampaignDB(root)
        self.dir, self.file = self.db.root, self.db.path

    def write(self, i):
        self.db.record_running(f"c{i}")

    def read(self):
        return sorted(int(e["cell"][1:]) for e in self.db.events())


def _schedule_entry():
    body = [
        Instruction(Opcode.VSPLAT, dests=("v0",), imms=(64,), lane_bytes=4),
        Instruction(Opcode.VASR, dests=("v1",), srcs=("v0",), imms=(4,)),
    ]
    packets = PACKERS["sda"](body)
    return ScheduleEntry(
        body=body, packets=packets, cycles=schedule_cycles(packets)
    )


class _Schedules:
    """The schedule cache's disk tier: item ``i`` is entry ``fp<i>``."""

    jsonl = False

    def __init__(self, root):
        self.store = DiskStore(root)
        self.dir = self.store.schema_dir
        self.file = self.store.path_for("fp1")
        self.wrote = set()

    def write(self, i):
        if not self.store.store(f"fp{i}", _schedule_entry()):
            raise OSError("store() reported failure")
        self.wrote.add(i)

    def read(self):
        return sorted(
            i for i in self.wrote if self.store.load(f"fp{i}") is not None
        )

    #: One file per entry: damaging ``fp1`` costs item 1 alone.
    lost = (1,)


class _Manifest:
    """The serve registry's ``models.json``: item ``i`` is model ``m<i>``."""

    jsonl = False

    def __init__(self, root):
        self.root = root
        self.registry = ModelRegistry(str(root))
        self.dir, self.file = root, self.registry.manifest_path

    def write(self, i):
        self.registry._entries[f"m{i}"] = ModelEntry(
            name=f"m{i}", source=f"m{i}"
        )
        if not self.registry.save_manifest():
            raise OSError("save_manifest() reported failure")

    def read(self):
        fresh = ModelRegistry(str(self.root))
        return sorted(int(m["name"][1:]) for m in fresh.load_manifest())

    #: One file for everything: damage costs the whole manifest, and
    #: the next save (from memory) restores all of it.
    lost = (0, 1, 2)


STORES = {
    "trial-db": _Trials,
    "campaign-db": _Campaign,
    "schedule-cache": _Schedules,
    "serve-manifest": _Manifest,
}


def _tmp_files(directory):
    return sorted(p.name for p in directory.glob("*.tmp"))


@pytest.fixture(params=list(STORES))
def store(request, tmp_path):
    return STORES[request.param](tmp_path / "store")


def _seeded(store):
    for i in range(3):
        store.write(i)
    assert store.read() == [0, 1, 2]
    return store


class TestFaultMatrix:
    def test_torn_trailing_write(self, store):
        _seeded(store)
        if store.jsonl:
            # kill -9 mid-append: a final line without its newline.
            with open(store.file, "ab") as handle:
                handle.write(b'{"event": "cell-running", "ce')
            survivors = [0, 1, 2]
        else:
            # A replace-style store can only be torn by something other
            # than its own writer; it must still read as a miss.
            data = store.file.read_bytes()
            store.file.write_bytes(data[: len(data) // 2])
            survivors = [i for i in range(3) if i not in store.lost]
        assert store.read() == survivors
        if store.jsonl:
            assert store.db.skipped_lines == 1
        # The next write neither merges with the damage nor loses to it.
        store.write(3)
        assert 3 in store.read()
        assert set(survivors) <= set(store.read())
        assert _tmp_files(store.dir) == []

    def test_corrupt_middle_item(self, store):
        _seeded(store)
        if store.jsonl:
            lines = store.file.read_bytes().splitlines(keepends=True)
            store.file.write_bytes(lines[0] + GARBAGE + b"".join(lines[2:]))
            survivors = [0, 2]
        else:
            store.file.write_bytes(GARBAGE)
            survivors = [i for i in range(3) if i not in store.lost]
        assert store.read() == survivors
        if store.jsonl:
            assert store.db.skipped_lines == 1
        store.write(3)
        assert 3 in store.read()
        assert set(survivors) <= set(store.read())

    def test_unwritable_directory(self, tmp_path, store):
        # The store's directory cannot be created: its parent is a
        # regular file.  (chmod is no obstacle to a root test run.)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        blocked = type(store)(blocker / "store")
        with pytest.raises(OSError):
            blocked.write(0)
        assert blocked.read() == []
        assert blocker.read_text().startswith("a file")

    def test_leftover_tmp_from_a_crash(self, store):
        _seeded(store)
        # A crash between mkstemp and os.replace leaves this behind.
        stale = store.dir / "crashed-writer.tmp"
        stale.write_bytes(b'{"half": "an ent')
        assert store.read() == [0, 1, 2]
        store.write(3)
        assert store.read() == [0, 1, 2, 3]
        # Never read as data, never adopted, and no sibling added.
        assert _tmp_files(store.dir) == ["crashed-writer.tmp"]
        assert stale.read_bytes() == b'{"half": "an ent'


class TestPrimitives:
    def test_read_json_lines_counts_only_unparsable_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert read_json_lines(path) == ([], 0)
        path.write_bytes(b'{"a": 1}\n\n' + GARBAGE + b'[2]\n{"torn": ')
        assert read_json_lines(path) == ([{"a": 1}, [2]], 2)

    def test_write_atomic_replaces_or_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "entry.json"
        write_atomic(path, json.dumps({"v": 1}))
        write_atomic(path, json.dumps({"v": 2}))
        assert json.loads(path.read_text()) == {"v": 2}
        assert _tmp_files(tmp_path) == []

    def test_write_atomic_removes_its_temp_file_on_failure(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # os.replace(file, directory) fails
        with pytest.raises(OSError):
            write_atomic(target, "text")
        assert _tmp_files(tmp_path) == []
        with pytest.raises(OSError):
            write_atomic(tmp_path / "missing-dir" / "entry.json", "text")
