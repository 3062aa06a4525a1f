"""Soft-Dependency-Aware (SDA) VLIW instruction packing — Algorithm 1.

Bottom-up packing over the instruction dependency graph: each new
packet is seeded with the last unpacked instruction of the remaining
critical path, then filled with the most profitable *free*
instructions.  An instruction is free when every one of its remaining
successors is either already packed (it will execute in a later packet
— packets are emitted bottom-up) or joins it in the current packet via
a *soft* edge, which hardware interlocks tolerate at a stall penalty.

Candidate profitability is Equation 4::

    i.score = (i.order + i.pred) * w  -  |hi_lat - i.lat| * (1 - w)

minus a penalty ``p(i, packet)`` when packing ``i`` would create a
stalling soft dependency inside the packet.  Both ``w`` and ``p`` are
the empirically-decided knobs the paper describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.isa.dependencies import DependencyKind, stalling_raw_registers
from repro.isa.instructions import Instruction, ResourceClass
from repro.machine.description import MachineDescription, resolve_machine
from repro.machine.packet import Packet
from repro.core.packing.cfg import build_cfg
from repro.core.packing.idg import InstructionDependencyGraph, build_idg


@dataclass(frozen=True)
class SdaConfig:
    """Tunable parameters of the SDA packer.

    Attributes
    ----------
    w:
        Equation 4's weight balancing dependency-depth priority against
        latency-similarity priority.
    soft_penalty:
        Score penalty per stalling soft pair the candidate would create
        in the current packet (the ``p`` of Algorithm 1 line 28).
    soft_mode:
        ``"sda"`` — full Algorithm 1;
        ``"hard"`` — treat soft dependencies as hard (the *soft_to_hard*
        baseline: soft pairs never share a packet);
        ``"none"`` — treat soft dependencies as no-dependencies (the
        *soft_to_none* baseline: lines 27-28 removed, so packing is
        penalty-blind and runtime stalls go unmanaged).
    """

    w: float = 0.7
    soft_penalty: float = 8.0
    soft_mode: str = "sda"

    def __post_init__(self) -> None:
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w must be in [0, 1], got {self.w}")
        if (
            not isinstance(self.soft_penalty, (int, float))
            or isinstance(self.soft_penalty, bool)
            or not math.isfinite(self.soft_penalty)
            or self.soft_penalty < 0.0
        ):
            raise ValueError(
                f"soft_penalty must be a finite non-negative number, "
                f"got {self.soft_penalty!r}"
            )
        if self.soft_mode not in ("sda", "hard", "none"):
            raise ValueError(f"unknown soft_mode {self.soft_mode!r}")


def block_graphs(
    instructions: Sequence[Instruction],
) -> List[InstructionDependencyGraph]:
    """One dependency graph per basic block of ``instructions``."""
    return [
        build_idg(block.instructions) for block in build_cfg(instructions)
    ]


def pack_instructions(
    instructions: Sequence[Instruction],
    config: Optional[SdaConfig] = None,
    machine: Optional[MachineDescription] = None,
    graphs: Optional[Sequence[InstructionDependencyGraph]] = None,
) -> List[Packet]:
    """Pack a full pseudo-assembly sequence, block by block.

    ``graphs`` are the blocks' dependency graphs when the caller has
    them already (:func:`pack_best` packs every block four times over
    one graph).
    """
    if graphs is None:
        graphs = block_graphs(instructions)
    packets: List[Packet] = []
    for idg in graphs:
        packets.extend(pack_block(idg.instructions, config, machine, idg))
    return packets


def pack_block(
    instructions: Sequence[Instruction],
    config: Optional[SdaConfig] = None,
    machine: Optional[MachineDescription] = None,
    idg: Optional[InstructionDependencyGraph] = None,
) -> List[Packet]:
    """Pack one basic block with Algorithm 1.

    Everything that is a fact about the block is computed once, up
    front; the loop only updates what a newly packed instruction
    changes.  In particular the critical path is never recomputed:
    packing is bottom-up, so an instruction leaves only after all its
    successors have, the remaining instructions stay closed under
    predecessors, and the cost of the longest path *ending* at a
    remaining instruction (``idg.path_cost``) never changes.  The next
    seed — the tail of the remaining critical path — is therefore the
    first unpacked maximum of ``path_cost``.
    """
    config = config or SdaConfig()
    machine = resolve_machine(machine)
    if idg is None:
        idg = build_idg(instructions)
    insts, pred, kind_of = idg.instructions, idg.pred, idg.kind
    count = len(insts)
    hard, soft = DependencyKind.HARD, DependencyKind.SOFT
    sda = config.soft_mode == "sda"
    soft_joins = config.soft_mode != "hard"
    rest, penalty = 1.0 - config.w, config.soft_penalty
    lat = [machine.latency(inst.opcode) for inst in insts]
    depth = [
        (idg.order[i] + len(pred[i])) * config.w for i in range(count)
    ]
    resource = [inst.resource for inst in insts]
    is_store = [inst.spec.is_store for inst in insts]
    limits = machine.resource_limits
    # Successors neither in a finished packet nor tied into the
    # current one by a soft edge; at zero the instruction is free.
    blocking = [len(successors) for successors in idg.succ]
    free = {i for i in range(count) if not blocking[i]}
    packed = [False] * count
    evaluations = 0
    packets_bottom_up: List[Packet] = []

    def fits(c: int, others: Sequence[int]) -> bool:
        """Algorithm 1's ``resource_constraint`` for a candidate that
        already fits with every member outside ``others``."""
        if used.get(resource[c], 0) >= limits[resource[c]]:
            return False
        if is_store[c] and stores >= machine.max_stores_per_packet:
            return False
        inst = insts[c]
        for m in others:
            if kind_of(inst, insts[m]) is hard:
                return False
            if kind_of(insts[m], inst) is hard:
                return False
        return True

    def stall(c: int, m: int) -> int:
        """Whether packing ``c`` with ``m`` creates a stalling soft pair."""
        first, second = (c, m) if c < m else (m, c)
        return int(
            pred[second].get(first) is soft
            and bool(stalling_raw_registers(insts[first], insts[second]))
        )

    for seed in sorted(range(count), key=lambda i: (-idg.path_cost[i], i)):
        if packed[seed]:
            continue
        packet = Packet([insts[seed]], machine)
        members: List[int] = []
        used: Dict[ResourceClass, int] = {}
        stores, hi_lat = 0, 0
        stalls: Dict[int, int] = {}
        candidates: List[int] = []
        arrivals = [i for i in free if i != seed]
        deferred: List[int] = []
        newest = seed
        while True:
            members.append(newest)
            packed[newest] = True
            free.discard(newest)
            used[resource[newest]] = used.get(resource[newest], 0) + 1
            stores += is_store[newest]
            hi_lat = max(hi_lat, lat[newest])
            for p, kind in pred[newest].items():
                if soft_joins and kind is soft:
                    blocking[p] -= 1
                    if not blocking[p]:
                        free.add(p)
                        arrivals.append(p)
                else:  # released when the packet is finished
                    deferred.append(p)
            if len(members) >= machine.max_packet_slots:
                break
            # The packet only grows, so a candidate that stopped
            # fitting never fits it again: survivors are checked
            # against ``newest`` alone, arrivals against every member.
            evaluations += len(candidates) + len(arrivals)
            kept = [c for c in candidates if fits(c, (newest,))]
            arrived = [c for c in arrivals if fits(c, members)]
            if sda:
                for c in kept:
                    stalls[c] += stall(c, newest)
                for c in arrived:
                    stalls[c] = sum(stall(c, m) for m in members)
            candidates = sorted(kept + arrived)  # program order
            arrivals = []
            pool = candidates
            if sda:
                # Enough independent work to fill the packet: "we will
                # prefer to not pack instructions with soft
                # dependencies together" — a stall costs more than the
                # slot it fills.
                pool = [c for c in candidates if not stalls[c]] or pool
            # Equation 4.  Strict comparison: ties keep the *first*
            # best candidate, so the chosen schedule does not depend
            # on candidate ordering.
            best, best_score = -1, float("-inf")
            for c in pool:
                score = depth[c] - abs(hi_lat - lat[c]) * rest
                if sda:
                    score -= penalty * stalls[c]
                if best < 0 or score > best_score:
                    best, best_score = c, score
            if best < 0:
                break
            evaluations += 1
            packet.add(insts[best], kind_of)
            candidates.remove(best)
            newest = best
        for p in deferred:
            blocking[p] -= 1
            if not blocking[p]:
                free.add(p)
        packets_bottom_up.append(packet)

    idg.work.evaluations += evaluations
    packets_bottom_up.reverse()
    return packets_bottom_up


def pack_best(
    instructions: Sequence[Instruction],
    *,
    w: float = 0.7,
    soft_penalty: float = 8.0,
    machine: Optional[MachineDescription] = None,
) -> List[Packet]:
    """Production packing: Algorithm 1 tuned by measured cycle cost.

    The paper's ``w`` and ``p`` are "empirically decided"; this helper
    performs that empirical step per kernel — it evaluates the SDA
    schedule against the two degenerate soft-mode settings and the
    classic top-down list schedule under the exact pipeline cost model
    and keeps the cheapest, so the shipped schedule is never worse than
    any of the ablations.  All four walk the same dependency graphs.
    """
    from repro.machine.pipeline import schedule_cycles
    from repro.core.packing.baselines import pack_list_schedule

    machine = resolve_machine(machine)
    graphs = block_graphs(instructions)
    candidates: List[List[Packet]] = [
        pack_instructions(
            instructions,
            SdaConfig(w=w, soft_penalty=soft_penalty, soft_mode=soft_mode),
            machine,
            graphs,
        )
        for soft_mode in ("sda", "none", "hard")
    ]
    candidates.append(
        pack_list_schedule(instructions, machine=machine, graphs=graphs)
    )
    return min(
        candidates, key=lambda packets: schedule_cycles(packets, machine)
    )
