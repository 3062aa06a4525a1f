"""VLIW packet model and hardware resource constraints.

A packet groups instructions that issue together.  Beyond the slot
ceiling, each functional-unit class has its own per-packet limit — the
paper calls out "packing two shift operations together is not allowed"
as one example; the default limits follow the Hexagon HVX resource
structure the paper targets.

All limits live in the active :class:`~repro.machine.description.
MachineDescription`: every legality check resolves the description *at
call time* (explicit argument, else the process default), so a patched
or per-compile machine model is observed by packing, lint, verify, and
the cache schema hash alike.  The module-level constants below are the
``hexagon698`` values, kept as documented aliases for existing callers;
no functional path reads them anymore.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import PacketError
from repro.isa.dependencies import DependencyKind, classify_dependency
from repro.isa.instructions import Instruction, Opcode, ResourceClass
from repro.machine.description import (
    HEXAGON_698,
    MachineDescription,
    resolve_machine,
)

#: Hexagon-698 packet geometry, re-exported for backward compatibility.
#: Functional code resolves the live machine description instead.
MAX_PACKET_SLOTS = HEXAGON_698.max_packet_slots

#: Hexagon-698 per-packet issue limits (compatibility alias; see above).
RESOURCE_LIMITS: Dict[ResourceClass, int] = dict(
    HEXAGON_698.resource_limits
)

#: Hexagon-698 store rule (compatibility alias; see above).
MAX_STORES_PER_PACKET = HEXAGON_698.max_stores_per_packet

_MachineArg = Optional[Union[str, MachineDescription]]
#: ``classify_dependency`` or a memo of it (a dependency graph's
#: ``kind``): the legality checks ask, they do not care who answers.
_Classifier = Callable[[Instruction, Instruction], DependencyKind]


def _resource_counts(instructions: Iterable[Instruction]) -> Counter:
    return Counter(inst.resource for inst in instructions)


def packet_is_legal(
    instructions: Iterable[Instruction],
    machine: _MachineArg = None,
) -> bool:
    """Whether ``instructions`` could form a legal packet on ``machine``.

    Checks the slot ceiling, per-resource limits, the store rule, and
    that no *hard* dependency links any pair (hard pairs in one packet
    "likely produce incorrect results" per Section IV-C).
    """
    desc = resolve_machine(machine)
    insts = list(instructions)
    if len(insts) > desc.max_packet_slots:
        return False
    counts = _resource_counts(insts)
    for resource, count in counts.items():
        if count > desc.limit(resource):
            return False
    stores = sum(1 for inst in insts if inst.spec.is_store)
    if stores > desc.max_stores_per_packet:
        return False
    for i, first in enumerate(insts):
        for second in insts[i + 1:]:
            if classify_dependency(first, second) is DependencyKind.HARD:
                return False
            if classify_dependency(second, first) is DependencyKind.HARD:
                return False
    return True


def fits_with(
    candidate: Instruction,
    packed: Iterable[Instruction],
    machine: _MachineArg = None,
    classify: _Classifier = classify_dependency,
) -> bool:
    """Whether ``candidate`` can join the partially built ``packed`` set.

    This is the check behind Algorithm 1's ``resource_constraint`` step;
    unlike :func:`packet_is_legal` it assumes ``packed`` is already legal
    and only validates the marginal addition.
    """
    desc = resolve_machine(machine)
    packed = list(packed)
    if len(packed) + 1 > desc.max_packet_slots:
        return False
    unit = candidate.resource
    if sum(inst.resource is unit for inst in packed) >= desc.limit(unit):
        return False
    if candidate.spec.is_store:
        stores = sum(1 for inst in packed if inst.spec.is_store)
        if stores + 1 > desc.max_stores_per_packet:
            return False
    for other in packed:
        if classify(candidate, other) is DependencyKind.HARD:
            return False
        if classify(other, candidate) is DependencyKind.HARD:
            return False
    return True


@dataclass
class Packet:
    """A VLIW packet: instructions issuing together on one machine.

    The packet enforces legality on construction and mutation, so any
    :class:`Packet` instance in the system is executable.  A packet
    built without an explicit ``machine`` binds the process default at
    construction time, so later mutations stay checked against the same
    target the packet was deemed legal for.
    """

    instructions: List[Instruction] = field(default_factory=list)
    machine: Optional[MachineDescription] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.machine = resolve_machine(self.machine)
        if not packet_is_legal(self.instructions, self.machine):
            raise PacketError(
                f"illegal packet contents: {self.instructions!r}"
            )

    def add(
        self,
        instruction: Instruction,
        classify: _Classifier = classify_dependency,
    ) -> None:
        """Append ``instruction``, raising :class:`PacketError` if illegal."""
        if not self.can_add(instruction, classify):
            raise PacketError(
                f"instruction {instruction!r} does not fit into packet "
                f"{self.instructions!r}"
            )
        self.instructions.append(instruction)

    def can_add(
        self,
        instruction: Instruction,
        classify: _Classifier = classify_dependency,
    ) -> bool:
        """Non-raising variant of :meth:`add`'s legality check."""
        return fits_with(
            instruction, self.instructions, self.machine, classify
        )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __contains__(self, instruction: Instruction) -> bool:
        return any(inst.uid == instruction.uid for inst in self.instructions)

    @property
    def empty_slots(self) -> int:
        """Unused slots, shown as ``N`` in the paper's Figure 5."""
        desc = self.machine or resolve_machine(None)
        return desc.max_packet_slots - len(self.instructions)

    def soft_pairs(self) -> List[Tuple[Instruction, Instruction]]:
        """All (earlier, later) pairs inside the packet linked softly.

        Pairs are oriented by program order (instruction uids increase
        in creation order), because a dependency only exists from the
        earlier instruction to the later one — the reverse direction
        would misread a WAR pair as a RAW.
        """
        ordered = sorted(self.instructions, key=lambda inst: inst.uid)
        pairs = []
        for i, first in enumerate(ordered):
            for second in ordered[i + 1:]:
                if classify_dependency(first, second) is DependencyKind.SOFT:
                    pairs.append((first, second))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = "; ".join(inst.opcode.value for inst in self.instructions)
        body += " N" * self.empty_slots
        return f"{{ {body} }}"
