"""Packet hazard detection and the soft-stall estimator.

Re-derives, instruction pair by instruction pair, the legality rules a
correct packer must have obeyed (Algorithm 1 / Section IV-C) — without
trusting :class:`~repro.machine.packet.Packet`'s own constructor
validation, which a corrupted pipeline may have bypassed by mutating
``packet.instructions`` directly:

* ``LINT-PK001`` — hard-dependent pairs sharing a packet, in either
  uid order;
* ``LINT-PK002`` — more instructions than issue slots;
* ``LINT-PK003`` — functional-unit class over its per-packet limit;
* ``LINT-PK004`` — more than one store per packet;
* ``LINT-PK005`` — co-packed writes to the same register (WAW);
* ``LINT-SC00x`` — schedule/body consistency (drops, duplicates,
  foreign instructions, inverted dependencies, poisoned estimates);
* ``LINT-ST001`` / :class:`StallEstimate` — the static soft-stall
  count, comparable against :mod:`repro.machine.profiler` numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.dependencies import (
    DependencyKind,
    classify_dependency,
    stalling_raw_registers,
)
from repro.isa.instructions import Instruction
from repro.lint.diagnostics import Diagnostic, Location
from repro.lint.rules import rule
from repro.machine.description import MachineDescription, resolve_machine
from repro.machine.packet import Packet


def _ordered(instructions: Sequence[Instruction]) -> List[Instruction]:
    """Members in program order (uids increase in creation order)."""
    return sorted(instructions, key=lambda inst: inst.uid)


def lint_packet(
    packet: Packet,
    index: int,
    node: Optional[str] = None,
    machine: Optional[MachineDescription] = None,
) -> List[Diagnostic]:
    """All intra-packet hazard rules over one packet.

    Limits come from the live machine description (explicit argument,
    else the process default) — never from constants bound at import —
    so lint always judges a packet by the same rules the packer and
    the cache schema hash used.  A hard dependency in either direction
    is a PK001 hazard: members are checked as an unordered set, like
    :func:`~repro.machine.packet.packet_is_legal` does.
    """
    desc = resolve_machine(machine)
    diagnostics: List[Diagnostic] = []
    insts = packet.instructions

    def flag(rule_id: str, message: str, **details) -> None:
        diagnostics.append(
            rule(rule_id).diagnostic(
                message,
                Location(node=node, packet_index=index),
                **details,
            )
        )

    if len(insts) > desc.max_packet_slots:
        flag(
            "LINT-PK002",
            f"packet holds {len(insts)} instructions "
            f"(limit {desc.max_packet_slots})",
            instructions=len(insts),
        )
    counts = Counter(inst.resource for inst in insts)
    for resource, count in sorted(counts.items(), key=lambda kv: kv[0].value):
        if count > desc.limit(resource):
            flag(
                "LINT-PK003",
                f"{count} x {resource.value} in one packet "
                f"(limit {desc.limit(resource)})",
                resource=resource.value,
            )
    stores = sum(1 for inst in insts if inst.spec.is_store)
    if stores > desc.max_stores_per_packet:
        flag(
            "LINT-PK004",
            f"{stores} stores in one packet "
            f"(limit {desc.max_stores_per_packet})",
        )

    ordered = _ordered(insts)
    for i, first in enumerate(ordered):
        for second in ordered[i + 1:]:
            waw = first.write_set & second.write_set
            if waw:
                flag(
                    "LINT-PK005",
                    f"{first.opcode.value} and {second.opcode.value} "
                    f"both write {sorted(waw)!r} in one packet",
                    registers=sorted(waw),
                )
            if classify_dependency(first, second) is DependencyKind.HARD:
                producer, consumer = first, second
            elif classify_dependency(second, first) is DependencyKind.HARD:
                producer, consumer = second, first
            else:
                continue
            flag(
                "LINT-PK001",
                f"hard dependency {producer.opcode.value} -> "
                f"{consumer.opcode.value} inside one packet",
                first_uid=producer.uid,
                second_uid=consumer.uid,
            )
    return diagnostics


def lint_schedule_consistency(
    packets: Sequence[Packet],
    body: Sequence[Instruction],
    node: Optional[str] = None,
) -> List[Diagnostic]:
    """Bijection and ordering between a kernel body and its schedule."""
    diagnostics: List[Diagnostic] = []
    position: Dict[int, int] = {}
    for index, packet in enumerate(packets):
        for inst in packet:
            if inst.uid in position:
                diagnostics.append(
                    rule("LINT-SC002").diagnostic(
                        f"{inst.opcode.value} scheduled in packet "
                        f"{position[inst.uid]} and again in packet {index}",
                        Location(
                            node=node,
                            packet_index=index,
                            opcode=inst.opcode.value,
                        ),
                        uid=inst.uid,
                    )
                )
                continue
            position[inst.uid] = index
    body_uids = {inst.uid for inst in body}
    missing = sorted(body_uids - set(position))
    if missing:
        diagnostics.append(
            rule("LINT-SC001").diagnostic(
                f"schedule drops {len(missing)} of {len(body_uids)} "
                f"kernel-body instructions",
                Location(node=node),
                missing_uids=missing,
            )
        )
    foreign = sorted(set(position) - body_uids)
    if foreign:
        diagnostics.append(
            rule("LINT-SC005").diagnostic(
                f"schedule contains {len(foreign)} instruction(s) not in "
                f"the kernel body",
                Location(node=node),
                foreign_uids=foreign,
            )
        )

    # Only pairs the schedule runs out of program order can invert a
    # dependency, so the position test comes first and the classifier
    # runs on those pairs alone.
    placed = [
        (inst, position[inst.uid])
        for inst in _ordered(body)
        if inst.uid in position
    ]
    for i, (first, first_at) in enumerate(placed):
        for second, second_at in placed[i + 1:]:
            if first_at <= second_at:
                continue
            kind = classify_dependency(first, second)
            if kind is DependencyKind.NONE:
                continue
            diagnostics.append(
                rule("LINT-SC004").diagnostic(
                    f"{kind.value} dependency inverted: "
                    f"{first.opcode.value} (packet {first_at}) executes "
                    f"after {second.opcode.value} (packet {second_at})",
                    Location(node=node, opcode=first.opcode.value),
                    first_uid=first.uid,
                    second_uid=second.uid,
                )
            )
    return diagnostics


def lint_cycle_estimate(
    cycles: float, node: Optional[str] = None
) -> List[Diagnostic]:
    """LINT-SC003: a cycle estimate must be finite and non-negative."""
    if (
        isinstance(cycles, (int, float))
        and math.isfinite(cycles)
        and cycles >= 0.0
    ):
        return []
    return [
        rule("LINT-SC003").diagnostic(
            f"cycle estimate is {cycles!r}",
            Location(node=node),
            cycles=repr(cycles),
        )
    ]


# ---------------------------------------------------------------------------
# soft-stall estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StallEstimate:
    """Static timing summary of one packed schedule.

    The derivation is independent of :mod:`repro.machine.pipeline` (the
    chains are re-discovered from the ISA-level interlock rule), but
    follows the same hardware rules — stalls serialize along soft-RAW
    chains, one cycle per link — so ``total_cycles`` must equal the
    profiler's number for the same schedule; the tests pin that
    agreement.
    """

    packets: int
    soft_raw_pairs: int
    stall_cycles: int
    base_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.base_cycles + self.stall_cycles

    @property
    def stall_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.stall_cycles / self.total_cycles


def _packet_stall_chain(packet: Packet) -> Tuple[int, int]:
    """(stalling soft-RAW pair count, longest chain length - 1).

    Stalling pairs come from the interlock rule itself
    (:func:`repro.isa.dependencies.stalling_raw_registers`) rather than
    from re-deriving soft classification and intersecting operand sets
    here — the ST001 contract is that this estimate *exactly* matches
    the pipeline model, and a second hand-rolled operand intersection is
    where the two drifted before (``srcs`` vs ``read_registers`` on
    implicit accumulator operands).  The chain walk is iterative in
    reverse uid order (RAW edges run low uid -> high uid) because this
    runs on corrupted packets of unbounded size.
    """
    ordered = _ordered(packet.instructions)
    edges: Dict[int, List[int]] = {}
    pairs = 0
    for i, first in enumerate(ordered):
        for second in ordered[i + 1:]:
            if not stalling_raw_registers(first, second):
                continue  # WAR-shaped soft pair: free, reads precede writes
            pairs += 1
            edges.setdefault(first.uid, []).append(second.uid)
    if not pairs:
        return 0, 0
    uids = set(edges)
    for succ in edges.values():
        uids.update(succ)
    depth: Dict[int, int] = {}
    for uid in sorted(uids, reverse=True):
        depth[uid] = 1 + max(
            (depth[s] for s in edges.get(uid, ())), default=0
        )
    longest = max(depth[uid] for uid in edges)
    return pairs, longest - 1


def estimate_stalls(
    packets: Sequence[Packet],
    machine: Optional[MachineDescription] = None,
) -> StallEstimate:
    """Statically estimate the stall cycles of a packed schedule."""
    desc = resolve_machine(machine)
    pairs = stalls = base = 0
    for packet in packets:
        if len(packet) == 0:
            base += 1  # a NOP bundle still occupies the pipeline
            continue
        packet_pairs, packet_stalls = _packet_stall_chain(packet)
        pairs += packet_pairs
        stalls += packet_stalls * desc.soft_raw_stall
        base += max(desc.latency(inst.opcode) for inst in packet)
    return StallEstimate(
        packets=len(packets),
        soft_raw_pairs=pairs,
        stall_cycles=stalls,
        base_cycles=base,
    )


def stall_diagnostic(
    estimate: StallEstimate, node: Optional[str] = None
) -> Diagnostic:
    """LINT-ST001 info summary for one schedule."""
    return rule("LINT-ST001").diagnostic(
        f"{estimate.soft_raw_pairs} stalling soft-RAW pair(s) cost "
        f"{estimate.stall_cycles} cycle(s) over {estimate.packets} "
        f"packet(s) ({estimate.total_cycles} total)",
        Location(node=node),
        stall_cycles=estimate.stall_cycles,
        total_cycles=estimate.total_cycles,
    )
