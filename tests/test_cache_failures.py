"""Disk-cache failure modes: every I/O fault degrades, none fails a
compile.

Covers the robustness seams added for the serving layer: torn/truncated
disk entries, an unusable cache directory and a full disk (via the
``write_hook`` fault seam).
"""

import json

from repro.cache import ScheduleCache, TIER_DISK, TIER_MISS
from repro.compiler import CompilerOptions, GCD2Compiler
from repro.core.packing import PACKERS
from repro.isa.instructions import Instruction, Opcode
from repro.machine.pipeline import schedule_cycles
from tests.conftest import small_cnn


def _body(shift: int = 3):
    return [
        Instruction(
            Opcode.VSPLAT, dests=("v0",), imms=(64,), lane_bytes=4
        ),
        Instruction(
            Opcode.VASR, dests=("v1",), srcs=("v0",), imms=(shift + 1,)
        ),
        Instruction(
            Opcode.VADD, dests=("v2",), srcs=("v1", "v1"), lane_bytes=4
        ),
    ]


def _entry(cache: ScheduleCache, fingerprint: str):
    from repro.cache.store import ScheduleEntry

    body = _body()
    packets = PACKERS["sda"](body)
    entry = ScheduleEntry(
        body=body, packets=packets, cycles=schedule_cycles(packets)
    )
    cache.put(fingerprint, entry)
    return entry


class TestTornDiskEntries:
    def test_truncated_entry_reads_as_miss(self, tmp_path):
        writer = ScheduleCache(disk_dir=tmp_path)
        _entry(writer, "fp1")
        (path,) = list(writer.disk.schema_dir.glob("*.json"))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

        reader = ScheduleCache(disk_dir=tmp_path)
        entry, tier = reader.lookup("fp1")
        assert entry is None and tier == TIER_MISS
        # The torn file is removed so it cannot fail every lookup.
        assert not path.exists()

    def test_valid_json_wrong_shape_reads_as_miss(self, tmp_path):
        writer = ScheduleCache(disk_dir=tmp_path)
        _entry(writer, "fp1")
        (path,) = list(writer.disk.schema_dir.glob("*.json"))
        path.write_text(json.dumps({"schema": "x", "packets": "nope"}))

        reader = ScheduleCache(disk_dir=tmp_path)
        entry, tier = reader.lookup("fp1")
        assert entry is None and tier == TIER_MISS

    def test_recompile_after_corruption_is_identical(self, tmp_path):
        graph = small_cnn()
        options = CompilerOptions(cache_dir=str(tmp_path))
        baseline = GCD2Compiler(options).compile(small_cnn())
        for path in tmp_path.rglob("*.json"):
            path.write_text("{torn")
        recompiled = GCD2Compiler(options).compile(graph)
        assert recompiled.total_cycles == baseline.total_cycles
        assert recompiled.total_packets == baseline.total_packets
        # Corrupt entries must read as misses, not as wrong schedules.
        assert recompiled.diagnostics.cache_disk_hits == 0


class TestUnusableCacheDir:
    def test_cache_dir_under_a_file_degrades_to_memory_only(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        options = CompilerOptions(cache_dir=str(blocker / "cache"))
        compiled = GCD2Compiler(options).compile(small_cnn())
        # Compile succeeded; every attempted disk write was an error.
        assert compiled.total_cycles > 0

    def test_store_into_unusable_dir_counts_disk_errors(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file")
        cache = ScheduleCache(disk_dir=blocker / "cache")
        _entry(cache, "fp1")
        assert cache.stats.disk_errors == 1
        # The memory tier still serves the entry.
        entry, tier = cache.lookup("fp1")
        assert entry is not None and tier == "memory"


class TestDiskFull:
    def test_write_hook_enospc_degrades_to_memory_only(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)

        def disk_full(path, payload):
            raise OSError(28, "No space left on device")

        cache.disk.write_hook = disk_full
        _entry(cache, "fp1")
        assert cache.stats.disk_errors == 1
        assert list(cache.disk.schema_dir.glob("*.json")) == []
        entry, tier = cache.lookup("fp1")
        assert entry is not None and tier == "memory"

    def test_compile_survives_disk_full(self, tmp_path):
        options = CompilerOptions(cache_dir=str(tmp_path))
        compiler = GCD2Compiler(options)

        def disk_full(path, payload):
            raise OSError(28, "No space left on device")

        compiler.schedule_cache.disk.write_hook = disk_full
        compiled = compiler.compile(small_cnn())
        assert compiled.total_cycles > 0
        assert compiler.schedule_cache.stats.disk_errors > 0
        # Nothing landed on disk: a fresh compile sees only misses.
        fresh = GCD2Compiler(options).compile(small_cnn())
        assert fresh.diagnostics.cache_disk_hits == 0
        assert fresh.total_cycles == compiled.total_cycles

    def test_disk_recovers_when_hook_cleared(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)
        cache.disk.write_hook = lambda path, payload: (_ for _ in ()).throw(
            OSError("full")
        )
        _entry(cache, "fp1")
        cache.disk.write_hook = None
        _entry(cache, "fp2")
        reader = ScheduleCache(disk_dir=tmp_path)
        assert reader.lookup("fp2")[1] == TIER_DISK
        assert reader.lookup("fp1")[1] == TIER_MISS
