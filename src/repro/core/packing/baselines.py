"""Baseline packing algorithms the paper compares SDA against.

* ``pack_soft_to_hard`` — Algorithm 1 with every soft dependency
  treated as hard: soft pairs never share a packet (Figure 5's and
  Figure 11's *soft to hard*);
* ``pack_soft_to_none`` — Algorithm 1 with the soft penalty removed
  (lines 27-28 deleted): packing is blind to the stalls it creates
  (Figure 11's *soft to none*);
* ``pack_list_schedule`` — classic top-down critical-path list
  scheduling in the style of Six et al. / LLVM, also without the
  soft/hard distinction.  This is the packing model for the Halide /
  TVM / RAKE baselines ("they perform packet generation without
  distinguishing between soft and hard dependencies").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.isa.instructions import Instruction
from repro.machine.description import MachineDescription, resolve_machine
from repro.machine.packet import Packet
from repro.core.packing.idg import InstructionDependencyGraph
from repro.core.packing.sda import (
    SdaConfig,
    block_graphs,
    pack_instructions,
)


def pack_soft_to_hard(
    instructions: Sequence[Instruction],
    *,
    w: float = 0.7,
    machine: Optional[MachineDescription] = None,
) -> List[Packet]:
    """SDA with soft dependencies degraded to hard ones."""
    return pack_instructions(
        instructions, SdaConfig(w=w, soft_mode="hard"), machine
    )


def pack_soft_to_none(
    instructions: Sequence[Instruction],
    *,
    w: float = 0.7,
    machine: Optional[MachineDescription] = None,
) -> List[Packet]:
    """SDA without the soft-dependency packing penalty."""
    return pack_instructions(
        instructions, SdaConfig(w=w, soft_mode="none"), machine
    )


def pack_list_schedule(
    instructions: Sequence[Instruction],
    *,
    machine: Optional[MachineDescription] = None,
    graphs: Optional[Sequence[InstructionDependencyGraph]] = None,
) -> List[Packet]:
    """Top-down critical-path list scheduling (soft treated as hard).

    Priority is the longest latency path from the instruction to the
    exit — "instructions with the longest latency path to the exit have
    priority" — and dependent instructions never share a packet.
    ``graphs`` are the blocks' dependency graphs when the caller has
    them already.
    """
    machine = resolve_machine(machine)
    if graphs is None:
        graphs = block_graphs(instructions)
    packets: List[Packet] = []
    for idg in graphs:
        packets.extend(_list_schedule_block(idg, machine))
    return packets


def _list_schedule_block(
    idg: InstructionDependencyGraph, machine: MachineDescription
) -> List[Packet]:
    insts, succ = idg.instructions, idg.succ
    # Longest latency path to exit, computed in reverse program order.
    height = [0] * len(insts)
    for i in reversed(range(len(insts))):
        height[i] = machine.latency(insts[i].opcode) + max(
            (height[s] for s in succ[i]), default=0
        )
    # Predecessors not yet in a finished packet.  An instruction is
    # ready at zero, so no two ready instructions depend on each other
    # and a packet member never depends on another member in any way.
    waiting = [len(preds) for preds in idg.pred]
    ready = [i for i in range(len(insts)) if not waiting[i]]
    packets: List[Packet] = []
    while ready:
        ready.sort(key=lambda i: (-height[i], insts[i].uid))
        packet = Packet([], machine)
        placed: List[int] = []
        for i in ready:
            if len(packet) >= machine.max_packet_slots:
                break
            idg.work.evaluations += 1
            if packet.can_add(insts[i], idg.kind):
                idg.work.evaluations += 1
                packet.add(insts[i], idg.kind)
                placed.append(i)
        if not placed:  # pragma: no cover - defensive
            packet.add(insts[ready[0]], idg.kind)
            placed.append(ready[0])
        ready = [i for i in ready if i not in placed]
        for i in placed:
            for s in succ[i]:
                waiting[s] -= 1
                if not waiting[s]:
                    ready.append(s)
        packets.append(packet)
    return packets
