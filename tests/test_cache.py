"""Tests for the content-addressed schedule cache (repro.cache)."""

import json

import pytest

from repro.cache import (
    DiskStore,
    ScheduleCache,
    ScheduleEntry,
    body_signature,
    instruction_identity,
    kernel_fingerprint,
    schema_hash,
)
from repro.cache import fingerprint as fingerprint_mod
from repro.core.packing import PACKERS
from repro.core.packing.sda import SdaConfig
from repro.core.unroll import UnrollConfig
from repro.codegen.matmul import emit_matmul_body
from repro.isa.instructions import Instruction, Opcode
from repro.machine.pipeline import schedule_cycles


def _body(shift: int = 3):
    return [
        Instruction(Opcode.VSPLAT, dests=("v0",), imms=(64,),
                    lane_bytes=4),
        Instruction(Opcode.VASR, dests=("v1",), srcs=("v0",),
                    imms=(shift,)),
        Instruction(Opcode.VADD, dests=("v2",), srcs=("v1", "v1"),
                    lane_bytes=4),
    ]


def _entry(body):
    packets = PACKERS["sda"](body)
    return ScheduleEntry(
        body=list(body), packets=packets,
        cycles=schedule_cycles(packets),
    )


class TestFingerprint:
    def test_identity_covers_imms_and_lane_bytes(self):
        inst = _body()[1]
        identity = instruction_identity(inst)
        assert inst.imms in (identity[3],)
        assert identity[4] == inst.lane_bytes

    def test_uid_and_comment_do_not_affect_identity(self):
        a = Instruction(Opcode.VADD, dests=("v0",), srcs=("v1", "v2"))
        b = Instruction(Opcode.VADD, dests=("v0",), srcs=("v1", "v2"),
                        comment="different")
        assert instruction_identity(a) == instruction_identity(b)
        assert a.uid != b.uid

    def test_imms_change_fingerprint(self):
        assert kernel_fingerprint(_body(1), "sda") != \
            kernel_fingerprint(_body(2), "sda")

    def test_lane_bytes_change_fingerprint(self):
        narrow = _body()
        wide = _body()
        wide[2] = Instruction(
            Opcode.VADD, dests=("v2",), srcs=("v1", "v1"), lane_bytes=1
        )
        assert kernel_fingerprint(narrow, "sda") != \
            kernel_fingerprint(wide, "sda")

    def test_packer_name_changes_fingerprint(self):
        body = _body()
        assert kernel_fingerprint(body, "sda") != \
            kernel_fingerprint(body, "list")

    def test_sda_config_changes_fingerprint(self):
        body = _body()
        assert kernel_fingerprint(body, "sda") != kernel_fingerprint(
            body, "sda", SdaConfig(w=0.3)
        )

    def test_unroll_config_changes_fingerprint(self):
        body = _body()
        default = kernel_fingerprint(body, "sda")
        tuned = kernel_fingerprint(
            body, "sda", None, UnrollConfig(skinny_seed=(8, 4))
        )
        assert default != tuned
        # An explicitly-passed default config is the same address as
        # no config at all, so warm caches survive the new argument.
        assert kernel_fingerprint(
            body, "sda", None, UnrollConfig()
        ) == default

    def test_fingerprint_is_stable_across_instances(self):
        assert kernel_fingerprint(_body(), "sda") == \
            kernel_fingerprint(_body(), "sda")

    def test_body_signature_is_order_sensitive(self):
        body = _body()
        assert body_signature(body) != body_signature(body[::-1])

    def test_schema_hash_tracks_schema_version(self, monkeypatch):
        before = schema_hash()
        monkeypatch.setattr(
            fingerprint_mod, "CACHE_SCHEMA_VERSION", 999
        )
        assert schema_hash() != before


class TestScheduleEntryRoundTrip:
    def test_payload_round_trip(self):
        entry = _entry(emit_matmul_body(Opcode.VRMPY, 2, 2,
                                        include_epilogue=True))
        rebuilt = ScheduleEntry.from_payload(entry.to_payload("fp"))
        assert rebuilt.cycles == entry.cycles
        assert len(rebuilt.body) == len(entry.body)
        assert body_signature(rebuilt.body) == body_signature(entry.body)
        assert [len(p) for p in rebuilt.packets] == \
            [len(p) for p in entry.packets]

    def test_round_trip_is_byte_identical_after_packing(self):
        # Packing and pricing touch every instruction's derived operand
        # views (spec, read/write sets); none of that may reach the
        # on-disk form, nor a worker's pickle change what it rebuilds.
        import json
        import pickle

        entry = _entry(emit_matmul_body(Opcode.VRMPY, 2, 2,
                                        include_epilogue=True))
        assert all("read_set" in vars(inst) for inst in entry.body)
        first = json.dumps(entry.to_payload("fp"), sort_keys=True)
        rebuilt = ScheduleEntry.from_payload(json.loads(first))
        assert json.dumps(rebuilt.to_payload("fp"), sort_keys=True) == first
        shipped = pickle.loads(pickle.dumps(entry))
        assert json.dumps(shipped.to_payload("fp"), sort_keys=True) == first

    def test_out_of_creation_order_body_round_trips(self):
        # Regression: lowered bodies are not always assembled in
        # instruction-creation order, and Packet.soft_pairs orients
        # soft dependencies by uid.  Rebuilding with fresh uids in body
        # order flipped those pairs and changed the stall count, so the
        # load-time cycle cross-check rejected the entry (a permanent
        # warm miss).  uid_rank in the payload preserves the ordering.
        store_inst = Instruction(
            Opcode.VSTORE, dests=(), srcs=("v1", "r_out"), imms=(0,)
        )
        producer = Instruction(  # created later, placed earlier
            Opcode.VADD, dests=("v1",), srcs=("v0", "v0"), lane_bytes=4
        )
        body = [producer, store_inst]
        assert body[0].uid > body[1].uid
        entry = _entry(body)
        rebuilt = ScheduleEntry.from_payload(entry.to_payload("fp"))
        assert rebuilt.cycles == entry.cycles
        assert rebuilt.body[0].uid > rebuilt.body[1].uid

    def test_rebuilt_packets_reference_rebuilt_body(self):
        entry = _entry(_body())
        rebuilt = ScheduleEntry.from_payload(entry.to_payload("fp"))
        body_uids = {inst.uid for inst in rebuilt.body}
        for packet in rebuilt.packets:
            for inst in packet:
                assert inst.uid in body_uids


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = DiskStore(tmp_path)
        entry = _entry(_body())
        assert store.store("abc", entry)
        loaded = store.load("abc")
        assert loaded is not None
        assert loaded.cycles == entry.cycles

    def test_missing_entry_is_none(self, tmp_path):
        assert DiskStore(tmp_path).load("nope") is None

    def test_corrupt_entry_dropped(self, tmp_path):
        store = DiskStore(tmp_path)
        store.store("abc", _entry(_body()))
        path = store.path_for("abc")
        path.write_text("{ not json")
        assert store.load("abc") is None
        assert not path.exists()

    def test_tampered_cycles_rejected(self, tmp_path):
        store = DiskStore(tmp_path)
        store.store("abc", _entry(_body()))
        path = store.path_for("abc")
        payload = json.loads(path.read_text())
        payload["cycles"] = payload["cycles"] + 1
        path.write_text(json.dumps(payload))
        assert store.load("abc") is None

    def test_stale_schema_generation_never_read(
        self, tmp_path, monkeypatch
    ):
        store = DiskStore(tmp_path)
        store.store("abc", _entry(_body()))
        monkeypatch.setattr(
            fingerprint_mod, "CACHE_SCHEMA_VERSION", 999
        )
        fresh = DiskStore(tmp_path)
        assert fresh.load("abc") is None
        assert len(fresh.generations()) == 1  # old gen still on disk

    def test_clear_removes_all_generations(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path)
        store.store("abc", _entry(_body()))
        monkeypatch.setattr(
            fingerprint_mod, "CACHE_SCHEMA_VERSION", 999
        )
        DiskStore(tmp_path).store("def", _entry(_body()))
        removed = DiskStore(tmp_path).clear()
        assert removed == 2
        assert DiskStore(tmp_path).generations() == []


class TestScheduleCache:
    def test_memory_hit_after_put(self):
        cache = ScheduleCache(memory_entries=4)
        cache.put("a", _entry(_body()))
        entry, tier = cache.lookup("a")
        assert entry is not None and tier == "memory"
        assert cache.stats.memory_hits == 1

    def test_miss_recorded(self):
        cache = ScheduleCache()
        entry, tier = cache.lookup("missing")
        assert entry is None and tier == "miss"
        assert cache.stats.misses == 1

    def test_lru_evicts_oldest(self):
        cache = ScheduleCache(memory_entries=1)
        cache.put("a", _entry(_body(1)))
        cache.put("b", _entry(_body(2)))
        assert len(cache) == 1
        assert cache.lookup("a")[1] == "miss"
        assert cache.lookup("b")[1] == "memory"

    def test_disk_tier_promotes_to_memory(self, tmp_path):
        writer = ScheduleCache(disk_dir=tmp_path)
        writer.put("a", _entry(_body()))
        reader = ScheduleCache(disk_dir=tmp_path)
        entry, tier = reader.lookup("a")
        assert entry is not None and tier == "disk"
        entry, tier = reader.lookup("a")
        assert tier == "memory"

    def test_memory_only_without_disk_dir(self, tmp_path):
        cache = ScheduleCache()
        assert cache.disk is None
        cache.put("a", _entry(_body()))
        assert list(tmp_path.iterdir()) == []

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScheduleCache(memory_entries=0)
