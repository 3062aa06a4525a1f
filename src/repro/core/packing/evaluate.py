"""Schedule evaluation and legality checking.

``schedule_summary`` reports the two quantities the paper's packing
evaluation uses — packet count (Figure 7 right) and cycle count
including soft-dependency stalls (Figure 11's speedups) — and
``validate_schedule`` asserts the invariants every legal schedule must
satisfy, whichever packer produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import SchedulingError
from repro.isa.dependencies import DependencyKind, classify_dependency
from repro.isa.instructions import Instruction
from repro.machine.packet import Packet, packet_is_legal
from repro.machine.pipeline import packet_cycles, schedule_cycles


@dataclass(frozen=True)
class ScheduleSummary:
    """Key metrics of one packed schedule."""

    packets: int
    cycles: int
    instructions: int
    empty_slots: int

    @property
    def slots_per_packet(self) -> float:
        """Average occupied slots per packet (packing density)."""
        if self.packets == 0:
            return 0.0
        return self.instructions / self.packets


def schedule_summary(packets: Sequence[Packet]) -> ScheduleSummary:
    """Packet/cycle/density metrics for a schedule."""
    return ScheduleSummary(
        packets=len(packets),
        cycles=schedule_cycles(packets),
        instructions=sum(len(p) for p in packets),
        empty_slots=sum(p.empty_slots for p in packets),
    )


def validate_schedule(
    packets: Sequence[Packet],
    original: Sequence[Instruction],
) -> None:
    """Check a schedule against the source instruction sequence.

    Raises
    ------
    SchedulingError
        If any invariant is violated:

        * every original instruction appears in exactly one packet;
        * every packet respects hardware resource constraints;
        * no hard-dependent pair shares a packet;
        * no dependency (hard or soft) is reordered — the consumer
          never executes in an *earlier* packet than its producer.
    """
    position: Dict[int, int] = {}
    for index, packet in enumerate(packets):
        if not packet_is_legal(packet.instructions, packet.machine):
            raise SchedulingError(f"packet {index} violates constraints")
        for inst in packet:
            if inst.uid in position:
                raise SchedulingError(
                    f"instruction {inst!r} scheduled twice"
                )
            position[inst.uid] = index

    missing = [inst for inst in original if inst.uid not in position]
    if missing:
        raise SchedulingError(f"instructions never scheduled: {missing!r}")
    if len(position) != len(original):
        raise SchedulingError(
            f"schedule has {len(position)} instructions, source has "
            f"{len(original)}"
        )

    ordered = list(original)
    for i, producer in enumerate(ordered):
        for consumer in ordered[i + 1:]:
            kind = classify_dependency(producer, consumer)
            if kind is DependencyKind.NONE:
                continue
            p_pos = position[producer.uid]
            c_pos = position[consumer.uid]
            if c_pos < p_pos:
                raise SchedulingError(
                    f"{kind.value} dependency reordered: {producer!r} "
                    f"(packet {p_pos}) -> {consumer!r} (packet {c_pos})"
                )
            if kind is DependencyKind.HARD and c_pos == p_pos:
                raise SchedulingError(
                    f"hard-dependent pair shares packet {p_pos}: "
                    f"{producer!r}, {consumer!r}"
                )
