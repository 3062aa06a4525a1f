"""Schedule evaluation.

``schedule_summary`` reports the two quantities the paper's packing
evaluation uses — packet count (Figure 7 right) and cycle count
including soft-dependency stalls (Figure 11's speedups).  Whether a
schedule is *legal* is the lint rules' question
(:meth:`repro.lint.StaticAnalyzer.lint_schedule`, PK001–PK005 and
SC001–SC005), whichever packer produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.machine.packet import Packet
from repro.machine.pipeline import schedule_cycles


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
