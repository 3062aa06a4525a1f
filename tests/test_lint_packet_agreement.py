"""The packer's legality predicates agree with the lint packet rules.

:func:`~repro.machine.packet.packet_is_legal` (the ``Packet``
constructor's guard) and :func:`~repro.machine.packet.fits_with` (the
packer's per-candidate test) are fast predicates; the lint rules
LINT-PK001–PK004 are what the compiler's packing check enforces.  This
suite keeps the two in line instead of a second copy of the rules:

* every packet the golden random blocks pack to, on every machine;
* every candidate of a greedy incremental build over the same blocks,
  legal or not — which includes hard pairs whose producer has the
  *higher* uid, the case PK001 once missed;
* one hand-built illegal packet per rule.

Marked ``lint_crossval`` so CI's lint-selfcheck job runs it too.
"""

from typing import List, Sequence, Set

import pytest

from repro.isa.dependencies import DependencyKind, classify_dependency
from repro.isa.instructions import Instruction, Opcode
from repro.lint import Severity, lint_packet
from repro.machine.description import (
    MachineDescription,
    machine_names,
    resolve_machine,
)
from repro.machine.packet import Packet, fits_with, packet_is_legal
from tests.test_packing_golden import random_blocks, random_packers

pytestmark = pytest.mark.lint_crossval

#: The rules ``packet_is_legal`` decides.  PK005 (co-packed WAW) is a
#: special case of PK001: a WAW pair is hard in both directions.
PACKET_RULES = ("LINT-PK001", "LINT-PK002", "LINT-PK003", "LINT-PK004")

MACHINES = machine_names()


def lint_errors(
    instructions: Sequence[Instruction], machine: MachineDescription
) -> Set[str]:
    """Packet-rule ERROR ids lint reports for these packet members."""
    packet = Packet(machine=machine)
    packet.instructions = list(instructions)  # bypass the constructor
    return {
        d.rule_id
        for d in lint_packet(packet, 0, None, machine)
        if d.severity is Severity.ERROR and d.rule_id in PACKET_RULES
    }


def _reverse_hard_only(
    candidate: Instruction, packed: Sequence[Instruction]
) -> bool:
    """``candidate`` (the later uid) is hard only *against* uid order."""

    def hard(first: Instruction, second: Instruction) -> bool:
        return classify_dependency(first, second) is DependencyKind.HARD

    return not any(hard(other, candidate) for other in packed) and any(
        hard(candidate, other) for other in packed
    )


@pytest.mark.parametrize("machine_name", MACHINES)
def test_golden_packets_agree(machine_name):
    machine = resolve_machine(machine_name)
    blocks = random_blocks()
    checked = 0
    for label, packer in random_packers(machine).items():
        for block in blocks:
            for packet in packer(block):
                legal = packet_is_legal(packet.instructions, machine)
                assert legal == (
                    not lint_errors(packet.instructions, machine)
                ), (label, packet)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("machine_name", MACHINES)
def test_incremental_builds_agree(machine_name):
    # Greedy program-order packing without the packer's heuristics:
    # every candidate, accepted or refused, is one verdict to compare.
    machine = resolve_machine(machine_name)
    accepted = refused = reverse_only = 0
    for block in random_blocks():
        packed: List[Instruction] = []
        for candidate in block:
            fits = fits_with(candidate, packed, machine)
            grown = packed + [candidate]
            assert packet_is_legal(grown, machine) == fits
            assert fits == (not lint_errors(grown, machine)), (
                candidate,
                packed,
            )
            if fits:
                accepted += 1
                packed = grown
                continue
            refused += 1
            if _reverse_hard_only(candidate, packed):
                reverse_only += 1
            packed = [candidate]
    assert accepted and refused
    # The both-orders half of PK001 is exercised, not just present.
    assert reverse_only > 0


# -- one hand-built illegal packet per rule ---------------------------


def _independent(opcode: Opcode, count: int, tag: str) -> List[Instruction]:
    """``count`` instructions of ``opcode`` sharing no register."""
    return [
        Instruction(opcode, dests=(f"{tag}d{i}",), srcs=(f"{tag}s{i}",))
        for i in range(count)
    ]


def _stores(count: int) -> List[Instruction]:
    """``count`` stores alternating vector/scalar (no unit overflows)."""
    return [
        Instruction(
            Opcode.VSTORE if i % 2 == 0 else Opcode.STORE,
            srcs=(f"x{i}", f"a{i}"),
        )
        for i in range(count)
    ]


def _overfull(machine: MachineDescription) -> List[Instruction]:
    """One instruction past the slot ceiling, every unit within limit."""
    pool: List[Instruction] = []
    for opcode in (
        Opcode.ADD, Opcode.VADD, Opcode.VMPYE, Opcode.VLOAD, Opcode.LOAD,
        Opcode.VASR, Opcode.VSHUFF,
    ):
        unit = Instruction(opcode).resource
        pool += _independent(opcode, machine.limit(unit), opcode.value)
    return pool[: machine.max_packet_slots + 1]


def _one_shift_over(machine: MachineDescription) -> List[Instruction]:
    """One vector shift past its unit's per-packet limit."""
    unit = Instruction(Opcode.VASR).resource
    return _independent(Opcode.VASR, machine.limit(unit) + 1, "s")


def _hard_forward() -> List[Instruction]:
    producer = Instruction(Opcode.VADD, dests=("v1",), srcs=("v0", "v0"))
    consumer = Instruction(Opcode.VASR, dests=("v2",), srcs=("v1", "v1"))
    return [producer, consumer]


def _hard_reverse() -> List[Instruction]:
    # The reader is created first, so it has the lower uid: in uid
    # order the pair reads as a (soft) WAR, against it as a hard RAW.
    reader = Instruction(Opcode.VASR, dests=("v2",), srcs=("v1", "v1"))
    writer = Instruction(Opcode.VADD, dests=("v1",), srcs=("v0", "v0"))
    return [reader, writer]


def _waw() -> List[Instruction]:
    return [
        Instruction(Opcode.VADD, dests=("v1",), srcs=("v0", "v0")),
        Instruction(Opcode.VASR, dests=("v1",), srcs=("v2", "v2")),
    ]


CASES = {
    "slots": (_overfull, {"LINT-PK002"}),
    "resource": (_one_shift_over, {"LINT-PK003"}),
    "stores": (
        lambda m: _stores(m.max_stores_per_packet + 1), {"LINT-PK004"}
    ),
    "hard_forward": (lambda m: _hard_forward(), {"LINT-PK001"}),
    "hard_reverse": (lambda m: _hard_reverse(), {"LINT-PK001"}),
    "waw": (lambda m: _waw(), {"LINT-PK001"}),
}


@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_hand_built_illegal_packet(case, machine_name):
    machine = resolve_machine(machine_name)
    build, expected = CASES[case]
    members = build(machine)
    assert not packet_is_legal(members, machine)
    assert lint_errors(members, machine) == expected
    # The last member is the one that breaks an otherwise legal packet.
    assert not fits_with(members[-1], members[:-1], machine)
