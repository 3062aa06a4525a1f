"""Execution profiling: utilization and memory bandwidth.

Stands in for the Snapdragon Profiler the paper uses for Figure 8 and
Figure 9(b,c).  Two quantities are reported:

* **DSP utilization** — MAC throughput achieved relative to the machine
  peak (2 vector-multiply slots per packet);
* **memory bandwidth** — bytes moved per second of modelled execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction, ResourceClass
from repro.machine.description import (
    HEXAGON_698,
    MachineDescription,
    resolve_machine,
)
from repro.machine.packet import Packet
from repro.machine.pipeline import PipelineModel, packet_cycles

#: Hexagon-698 peak MACs per cycle (compatibility alias): two vector
#: multiply pipelines, the widest (vmpa) retiring 256 MACs each over
#: its 3-cycle latency.  Live code uses
#: :attr:`MachineDescription.peak_macs_per_cycle`.
PEAK_MACS_PER_CYCLE = HEXAGON_698.peak_macs_per_cycle


@dataclass
class ExecutionProfile:
    """Aggregated counters from one profiled run."""

    cycles: int = 0
    packets: int = 0
    issued_instructions: int = 0
    macs: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    machine: Optional[MachineDescription] = field(
        default=None, repr=False, compare=False
    )

    def _machine(self) -> MachineDescription:
        return self.machine or resolve_machine(None)

    @property
    def slot_occupancy(self) -> float:
        """Fraction of issue slots holding a real instruction."""
        if self.packets == 0:
            return 0.0
        return self.issued_instructions / (
            self.packets * self._machine().max_packet_slots
        )

    @property
    def mac_utilization(self) -> float:
        """MAC throughput relative to machine peak (0..1)."""
        if self.cycles == 0:
            return 0.0
        return min(
            1.0,
            self.macs
            / (self.cycles * self._machine().peak_macs_per_cycle),
        )

    def bandwidth_gbps(self, pipeline: PipelineModel) -> float:
        """Memory traffic in GB/s over the modelled execution time."""
        seconds = pipeline.cycles_to_seconds(self.cycles)
        if seconds == 0:
            return 0.0
        return (self.bytes_loaded + self.bytes_stored) / seconds / 1e9

    def merge(self, other: "ExecutionProfile") -> "ExecutionProfile":
        """Combine two profiles (e.g. across operators of a model)."""
        return ExecutionProfile(
            cycles=self.cycles + other.cycles,
            packets=self.packets + other.packets,
            issued_instructions=(
                self.issued_instructions + other.issued_instructions
            ),
            macs=self.macs + other.macs,
            bytes_loaded=self.bytes_loaded + other.bytes_loaded,
            bytes_stored=self.bytes_stored + other.bytes_stored,
            machine=self.machine or other.machine,
        )

    def scaled(self, repeats: float) -> "ExecutionProfile":
        """Profile of this unit of work repeated ``repeats`` times.

        Counters stay *exact*: a fractional ``repeats`` (e.g. an
        amortized setup schedule shared by several kernels) scales every
        counter by the same rational factor, so derived ratios such as
        ``bytes_loaded / cycles`` survive merging unchanged.  Rounding
        each counter independently here is what used to make merged
        profiles drift from ``repeats x unit``.  Integer results
        normalize back to ``int``; call :meth:`rounded` at the final
        reporting boundary.
        """
        factor = Fraction(repeats)

        def scale(value):
            exact = value * factor
            return int(exact) if exact.denominator == 1 else exact

        return ExecutionProfile(
            cycles=scale(self.cycles),
            packets=scale(self.packets),
            issued_instructions=scale(self.issued_instructions),
            macs=scale(self.macs),
            bytes_loaded=scale(self.bytes_loaded),
            bytes_stored=scale(self.bytes_stored),
            machine=self.machine,
        )

    def rounded(self) -> "ExecutionProfile":
        """Whole-number view of the profile, for reporting only."""
        return ExecutionProfile(
            cycles=int(round(self.cycles)),
            packets=int(round(self.packets)),
            issued_instructions=int(round(self.issued_instructions)),
            macs=int(round(self.macs)),
            bytes_loaded=int(round(self.bytes_loaded)),
            bytes_stored=int(round(self.bytes_stored)),
            machine=self.machine,
        )


class Profiler:
    """Builds an :class:`ExecutionProfile` from packet schedules."""

    def __init__(
        self, machine: Optional[MachineDescription] = None
    ) -> None:
        self.machine = resolve_machine(machine)
        self.profile = ExecutionProfile(machine=self.machine)
        # id(packets) -> (packets, its unrepeated profile): operators
        # sharing a kernel body share one schedule object, priced once.
        self._units: Dict[int, Tuple[Sequence[Packet], ExecutionProfile]] = {}

    def observe_schedule(
        self, packets: Sequence[Packet], repeats: int = 1
    ) -> ExecutionProfile:
        """Account one schedule, optionally repeated ``repeats`` times.

        Loads/stores are counted from the vector memory instructions in
        the schedule (each moves one full vector register of the
        profiled machine's width).  A schedule observed again — the
        same list object, which must not change in between — is not
        priced again, only scaled and merged.
        """
        known = self._units.get(id(packets))
        if known is not None and known[0] is packets:
            unit = known[1]
        else:
            unit = ExecutionProfile(machine=self.machine)
            for packet in packets:
                unit.packets += 1
                unit.cycles += packet_cycles(packet, self.machine)
                for inst in packet:
                    unit.issued_instructions += 1
                    unit.macs += self.machine.macs(inst.opcode)
                    if inst.spec.is_load:
                        unit.bytes_loaded += _transfer_bytes(
                            inst, self.machine
                        )
                    if inst.spec.is_store:
                        unit.bytes_stored += _transfer_bytes(
                            inst, self.machine
                        )
            self._units[id(packets)] = (packets, unit)
        unit = unit.scaled(repeats)
        self.profile = self.profile.merge(unit)
        return unit


def _transfer_bytes(
    inst: Instruction, machine: Optional[MachineDescription] = None
) -> int:
    from repro.isa.instructions import Opcode

    if inst.opcode in (Opcode.VLOAD, Opcode.VSTORE):
        return resolve_machine(machine).vector_bytes
    return 4
