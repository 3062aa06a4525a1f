"""Two-tier schedule cache: in-memory LRU over an optional disk store.

Tier 1 is a bounded LRU ``{fingerprint: ScheduleEntry}`` map — the
per-process cache every :class:`~repro.compiler.GCD2Compiler` owns.
Tier 2 is a content-addressed directory of JSON entries shared across
processes and compiler runs, namespaced by the machine-model schema
hash::

    <cache_dir>/<schema_hash[:16]>/<fingerprint>.json

Entries from a previous schema generation sit in a different
subdirectory and are simply never read again — stale schedules
self-invalidate without any explicit migration step.  Disk entries are
re-validated on load (packet legality via :class:`Packet` construction
plus a cycle-count cross-check); anything corrupt is dropped and
recorded as a miss, never served.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import PacketError
from repro.isa.instructions import Instruction, Opcode
from repro.machine.description import MachineDescription, resolve_machine
from repro.machine.packet import Packet
from repro.machine.pipeline import schedule_cycles
from repro.cache.fingerprint import CACHE_SCHEMA_VERSION, schema_hash
from repro.store import write_atomic

_MachineArg = Optional[Union[str, MachineDescription]]

#: Tier names reported by :meth:`ScheduleCache.lookup`.
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_MISS = "miss"


def default_cache_dir() -> Path:
    """The on-disk cache root honoring ``REPRO_CACHE_DIR`` / XDG."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class ScheduleEntry:
    """One cached packed schedule.

    ``packets`` reference the :class:`Instruction` objects of ``body``
    (the canonical body instance every node sharing this entry adopts
    as its ``schedule_body``).
    """

    body: List[Instruction]
    packets: List[Packet]
    cycles: int

    def to_payload(
        self, fingerprint: str, machine: _MachineArg = None
    ) -> Dict:
        """JSON-serializable form; packets become index lists.

        ``uid_rank`` preserves the body's *relative* uid order: lowered
        bodies are not always assembled in instruction-creation order,
        and :meth:`Packet.soft_pairs` orients soft dependencies by uid
        as a program-order proxy — rebuilding with fresh uids in body
        order would flip those pairs and change the stall count.
        """
        index_of = {inst.uid: i for i, inst in enumerate(self.body)}
        by_uid = sorted(range(len(self.body)),
                        key=lambda i: self.body[i].uid)
        uid_rank = [0] * len(self.body)
        for rank, i in enumerate(by_uid):
            uid_rank[i] = rank
        return {
            "version": CACHE_SCHEMA_VERSION,
            "schema": schema_hash(machine),
            "fingerprint": fingerprint,
            "cycles": self.cycles,
            "uid_rank": uid_rank,
            "body": [
                {
                    "opcode": inst.opcode.value,
                    "dests": list(inst.dests),
                    "srcs": list(inst.srcs),
                    "imms": list(inst.imms),
                    "lane_bytes": inst.lane_bytes,
                    "comment": inst.comment,
                }
                for inst in self.body
            ],
            "packets": [
                [index_of[inst.uid] for inst in packet]
                for packet in self.packets
            ],
        }

    @classmethod
    def from_payload(
        cls, payload: Dict, machine: _MachineArg = None
    ) -> "ScheduleEntry":
        """Rebuild and *re-verify* an entry from its JSON form.

        Raises
        ------
        CacheEntryError
            If the payload is malformed, schedules an instruction
            twice/never, forms an illegal packet, or disagrees with the
            pipeline model on its own cycle count.
        """
        if payload.get("version") != CACHE_SCHEMA_VERSION:
            raise CacheEntryError(
                f"unsupported entry version {payload.get('version')!r}"
            )
        machine = resolve_machine(machine)
        if payload.get("schema") != schema_hash(machine):
            raise CacheEntryError("entry written under a different schema")
        try:
            specs = payload["body"]
            uid_rank = payload.get("uid_rank", list(range(len(specs))))
            if sorted(uid_rank) != list(range(len(specs))):
                raise ValueError(f"uid_rank is not a permutation: {uid_rank}")
            # Instantiate in original creation order so fresh uids
            # reproduce the body's relative uid ordering (program
            # order, as Packet.soft_pairs sees it).
            built: Dict[int, Instruction] = {}
            for i in sorted(range(len(specs)), key=lambda i: uid_rank[i]):
                spec = specs[i]
                built[i] = Instruction(
                    opcode=Opcode(spec["opcode"]),
                    dests=tuple(spec["dests"]),
                    srcs=tuple(spec["srcs"]),
                    imms=tuple(spec["imms"]),
                    comment=spec.get("comment", ""),
                    lane_bytes=spec.get("lane_bytes", 1),
                )
            body = [built[i] for i in range(len(specs))]
            index_lists = [list(ix) for ix in payload["packets"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheEntryError(f"malformed entry payload: {exc}") from exc

        scheduled = [i for indices in index_lists for i in indices]
        if sorted(scheduled) != list(range(len(body))):
            raise CacheEntryError(
                "packets do not schedule the body exactly once"
            )
        try:
            packets = [
                Packet([body[i] for i in indices], machine)
                for indices in index_lists
            ]
        except (IndexError, PacketError) as exc:
            raise CacheEntryError(f"illegal cached packet: {exc}") from exc

        cycles = schedule_cycles(packets, machine)
        if cycles != payload.get("cycles"):
            raise CacheEntryError(
                f"cycle mismatch: entry claims {payload.get('cycles')}, "
                f"pipeline model computes {cycles}"
            )
        return cls(body=body, packets=packets, cycles=cycles)


class CacheEntryError(Exception):
    """A disk entry failed validation (treated as a miss, never raised
    past the cache layer)."""


@dataclass
class CacheStats:
    """Lookup/store accounting across one cache's lifetime."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return (self.memory_hits + self.disk_hits) / self.lookups


class DiskStore:
    """Content-addressed JSON entries under one schema subdirectory.

    ``write_hook`` is a fault-injection seam: when set, it is called
    with ``(path, payload)`` before every write and may raise
    :class:`OSError` to simulate a full or failing disk — the store
    then reports the write as failed (degrading the cache to
    memory-only) exactly as it would for a real ``ENOSPC``.
    """

    def __init__(
        self, root: Union[str, Path], machine: _MachineArg = None
    ) -> None:
        self.root = Path(root)
        self.write_hook = None
        # ``None`` keeps resolving the process default live, so a
        # patched default machine re-namespaces this store on the next
        # call rather than serving entries hashed for the old model.
        self.machine = (
            resolve_machine(machine) if machine is not None else None
        )

    @property
    def schema_dir(self) -> Path:
        return self.root / schema_hash(self.machine)[:16]

    def path_for(self, fingerprint: str) -> Path:
        return self.schema_dir / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> Optional[ScheduleEntry]:
        """Read an entry, or ``None`` on miss/corruption.

        Corrupt or stale-format files are deleted so they do not fail
        every future lookup.
        """
        path = self.path_for(fingerprint)
        try:
            payload = json.loads(path.read_text())
            return ScheduleEntry.from_payload(payload, self.machine)
        except FileNotFoundError:
            return None
        except (ValueError, CacheEntryError, OSError):
            # ValueError: not JSON, or not even UTF-8.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None

    def store(self, fingerprint: str, entry: ScheduleEntry) -> bool:
        """Atomically write an entry; returns False on I/O failure.

        A read-only or full cache directory degrades the cache to
        memory-only operation rather than failing the compile.
        """
        try:
            self.schema_dir.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(
                entry.to_payload(fingerprint, self.machine)
            )
            if self.write_hook is not None:
                self.write_hook(self.path_for(fingerprint), payload)
            write_atomic(self.path_for(fingerprint), payload)
            return True
        except OSError:
            return False

    def entry_count(self) -> int:
        """Entries in the *current* schema generation."""
        if not self.schema_dir.is_dir():
            return 0
        return sum(1 for _ in self.schema_dir.glob("*.json"))

    def total_bytes(self) -> int:
        """Bytes across all generations under the root."""
        if not self.root.is_dir():
            return 0
        return sum(
            p.stat().st_size
            for p in self.root.rglob("*.json")
            if p.is_file()
        )

    def generations(self) -> List[str]:
        """Schema subdirectories present on disk (current + stale)."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def clear(self) -> int:
        """Delete every generation; returns entries removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for gen in list(self.root.iterdir()):
            if not gen.is_dir():
                continue
            for path in list(gen.glob("*")):
                try:
                    path.unlink()
                    removed += 1 if path.suffix == ".json" else 0
                except OSError:
                    pass
            try:
                gen.rmdir()
            except OSError:
                pass
        return removed


class ScheduleCache:
    """The two-tier cache a compiler resolves kernel schedules through."""

    def __init__(
        self,
        memory_entries: int = 256,
        disk_dir: Optional[Union[str, Path]] = None,
        machine: _MachineArg = None,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, ScheduleEntry]" = OrderedDict()
        self.disk: Optional[DiskStore] = (
            DiskStore(disk_dir, machine) if disk_dir is not None else None
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._memory)

    def lookup(
        self, fingerprint: str
    ) -> Tuple[Optional[ScheduleEntry], str]:
        """Resolve a fingerprint; returns ``(entry, tier)``.

        Disk hits are promoted into the memory tier so repeated use
        within one process pays the deserialization cost once.
        """
        entry = self._memory.get(fingerprint)
        if entry is not None:
            self._memory.move_to_end(fingerprint)
            self.stats.memory_hits += 1
            return entry, TIER_MEMORY
        if self.disk is not None:
            entry = self.disk.load(fingerprint)
            if entry is not None:
                self._remember(fingerprint, entry)
                self.stats.disk_hits += 1
                return entry, TIER_DISK
        self.stats.misses += 1
        return None, TIER_MISS

    def put(self, fingerprint: str, entry: ScheduleEntry) -> None:
        """Insert into both tiers."""
        self._remember(fingerprint, entry)
        self.stats.stores += 1
        if self.disk is not None:
            if not self.disk.store(fingerprint, entry):
                self.stats.disk_errors += 1

    def _remember(self, fingerprint: str, entry: ScheduleEntry) -> None:
        self._memory[fingerprint] = entry
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
