"""Instruction definitions for the simulated Hexagon-class DSP.

The model follows the description in the paper (Section II/III) and the
public Hexagon HVX documentation it cites:

* 1024-bit vector registers (128 int8 lanes);
* a VLIW packet holds up to four instructions, with per-resource slot
  limits (e.g. at most one shift per packet);
* SIMD multiply instructions with different operand shapes and
  multiply-accumulate structures (``vmpy``, ``vmpa``, ``vrmpy``, …);
* every instruction executes in a three-stage pipeline (read register
  file, execute, write register file).

Instructions are deliberately *descriptive* objects: the functional
meaning lives in :mod:`repro.isa.semantics` and the timing meaning in
:mod:`repro.machine.pipeline`, so the packing algorithms can reason about
instructions without ever executing them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import IsaError

#: Vector register width in bits / bytes / int8 lanes (Hexagon 698 HVX).
VECTOR_BITS = 1024
VECTOR_BYTES = VECTOR_BITS // 8
VECTOR_LANES = VECTOR_BYTES


class Opcode(enum.Enum):
    """Every operation the simulated machine understands."""

    # Vector multiply family (Figure 1 of the paper).
    VMPY = "vmpy"      # vector x 4 scalars -> 16-bit vector pair
    VMPA = "vmpa"      # vector pair x 4 scalars, pairwise add -> pair
    VRMPY = "vrmpy"    # 4-wide dot product -> 32-bit vector
    VTMPY = "vtmpy"    # triple MAC over a sliding window
    VMPYE = "vmpye"    # multiply even lanes

    # Vector arithmetic / data movement.
    VADD = "vadd"
    VSUB = "vsub"
    VMAX = "vmax"
    VMIN = "vmin"
    VAVG = "vavg"
    VSHUFF = "vshuff"  # interleave two vectors (permute resource)
    VASR = "vasr"      # arithmetic shift right w/ rounding (requantize)
    VSPLAT = "vsplat"  # broadcast a scalar into all lanes
    VSEL = "vsel"      # lane select / predication

    # Vector memory.
    VLOAD = "vload"
    VSTORE = "vstore"

    # Scalar side.
    LOAD = "load"
    STORE = "store"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SHIFT = "shift"
    CMP = "cmp"
    LUT = "lut"        # table lookup (division-replacement optimization)
    JUMP = "jump"
    LOOP = "loop"
    NOP = "nop"


class ResourceClass(enum.Enum):
    """Functional-unit class an instruction occupies inside a packet.

    The per-packet limits for each class live in
    :mod:`repro.machine.packet`; the class itself is a property of the
    instruction.
    """

    VMULT = "vmult"        # vector multiply pipelines (2 per packet)
    VALU = "valu"          # vector ALU
    VSHIFT = "vshift"      # vector shift (1 per packet)
    VPERMUTE = "vpermute"  # vector permute network (1 per packet)
    VMEM = "vmem"          # vector load/store port
    SMEM = "smem"          # scalar load/store port
    SALU = "salu"          # scalar ALU
    BRANCH = "branch"      # jump / hardware loop


@dataclass(frozen=True)
class InstrSpec:
    """Static properties shared by all instances of one opcode.

    Attributes
    ----------
    opcode:
        The opcode being described.
    resource:
        Functional unit occupied within a VLIW packet.
    latency:
        End-to-end cycles when the instruction runs alone (the paper's
        running examples use three-cycle instructions: one cycle per
        read / execute / write stage).
    macs:
        Multiply-accumulate operations performed per issue; used by the
        cost model and by the profiler's utilization accounting.
    is_store / is_load:
        Memory direction flags used by dependency classification.
    accumulates:
        Whether the opcode has an accumulate-in-place form that reads
        its destination register as an implicit operand (``vrmpy``'s
        ``vd += ...`` form).  Dataflow and dependency analyses must
        treat the destination of such an instruction as *read and
        written* even when the emitter did not list it in ``srcs``.
    """

    opcode: Opcode
    resource: ResourceClass
    latency: int
    macs: int = 0
    is_store: bool = False
    is_load: bool = False
    accumulates: bool = False


def _specs() -> Dict[Opcode, InstrSpec]:
    make = InstrSpec
    table = [
        # Vector multiplies: 3-cycle, heavy MAC throughput.  The MAC
        # counts reflect Figure 1: vmpy forms 128 products, vmpa forms
        # 256 products folded into 128 adds, vrmpy forms 128 products
        # reduced into 32 accumulators.
        make(Opcode.VMPY, ResourceClass.VMULT, latency=3, macs=128),
        make(Opcode.VMPA, ResourceClass.VMULT, latency=3, macs=256),
        make(Opcode.VRMPY, ResourceClass.VMULT, latency=3, macs=128,
             accumulates=True),
        make(Opcode.VTMPY, ResourceClass.VMULT, latency=3, macs=192,
             accumulates=True),
        make(Opcode.VMPYE, ResourceClass.VMULT, latency=3, macs=64),
        # Vector ALU: the full 3-stage pipeline (footnote 4: every
        # instruction passes read/execute/write, one cycle per stage).
        make(Opcode.VADD, ResourceClass.VALU, latency=3),
        make(Opcode.VSUB, ResourceClass.VALU, latency=3),
        make(Opcode.VMAX, ResourceClass.VALU, latency=3),
        make(Opcode.VMIN, ResourceClass.VALU, latency=3),
        make(Opcode.VAVG, ResourceClass.VALU, latency=3),
        make(Opcode.VSEL, ResourceClass.VALU, latency=3),
        make(Opcode.VSPLAT, ResourceClass.VALU, latency=2),
        # Shift and permute have dedicated, single-issue resources.
        make(Opcode.VASR, ResourceClass.VSHIFT, latency=3),
        make(Opcode.VSHUFF, ResourceClass.VPERMUTE, latency=3),
        # Memory: loads take the full pipeline; stores skip the
        # write-back stage.
        make(Opcode.VLOAD, ResourceClass.VMEM, latency=3, is_load=True),
        make(Opcode.VSTORE, ResourceClass.VMEM, latency=2, is_store=True),
        make(Opcode.LOAD, ResourceClass.SMEM, latency=3, is_load=True),
        make(Opcode.STORE, ResourceClass.SMEM, latency=2, is_store=True),
        # Scalar ALU: single cycle.
        make(Opcode.ADD, ResourceClass.SALU, latency=1),
        make(Opcode.SUB, ResourceClass.SALU, latency=1),
        make(Opcode.MUL, ResourceClass.SALU, latency=2),
        make(Opcode.SHIFT, ResourceClass.SALU, latency=1),
        make(Opcode.CMP, ResourceClass.SALU, latency=1),
        make(Opcode.LUT, ResourceClass.SMEM, latency=2, is_load=True),
        make(Opcode.JUMP, ResourceClass.BRANCH, latency=1),
        make(Opcode.LOOP, ResourceClass.BRANCH, latency=1),
        make(Opcode.NOP, ResourceClass.SALU, latency=1),
    ]
    return {spec.opcode: spec for spec in table}


#: Opcode -> static spec lookup used throughout the compiler.
SPEC_TABLE: Dict[Opcode, InstrSpec] = _specs()


def spec_for(opcode: Opcode) -> InstrSpec:
    """Return the :class:`InstrSpec` for ``opcode``.

    Raises
    ------
    IsaError
        If the opcode is unknown (should be impossible for enum members,
        but protects against forged values).
    """
    try:
        return SPEC_TABLE[opcode]
    except KeyError as exc:  # pragma: no cover - defensive
        raise IsaError(f"no spec registered for opcode {opcode!r}") from exc


_instruction_ids = itertools.count()


@dataclass(frozen=True, eq=False)  # identity equality/hash: uid is it
class Instruction:
    """A single (pseudo-)assembly instruction.

    Register operands are referred to by *name* (e.g. ``"v0"``, ``"r3"``);
    the functional simulator binds names to values at execution time.
    Instances are immutable, which is what lets the operand views
    below (``spec``, ``read_registers``, ``read_set``, ``write_set``)
    be derived once, on first use; they are not fields, so they never
    reach a serialized schedule.

    Attributes
    ----------
    opcode:
        Operation performed.
    dests:
        Register names written by the instruction.
    srcs:
        Register names read by the instruction.
    imms:
        Immediate operands (weights, addresses, shift amounts).
    comment:
        Free-form annotation used by debug dumps and tests.
    lane_bytes:
        Lane width (1, 2 or 4 bytes) at which vector ALU/permute
        operations interpret their register operands.
    uid:
        Process-unique id so identical-looking instructions stay
        distinguishable inside dependency graphs.
    """

    opcode: Opcode
    dests: Tuple[str, ...] = ()
    srcs: Tuple[str, ...] = ()
    imms: Tuple[int, ...] = ()
    comment: str = ""
    lane_bytes: int = 1
    uid: int = field(default_factory=lambda: next(_instruction_ids))

    def __post_init__(self) -> None:
        if type(self.dests) is not tuple:
            object.__setattr__(self, "dests", tuple(self.dests))
        if type(self.srcs) is not tuple:
            object.__setattr__(self, "srcs", tuple(self.srcs))
        if type(self.imms) is not tuple:
            object.__setattr__(self, "imms", tuple(self.imms))

    @cached_property
    def spec(self) -> InstrSpec:
        """Static properties of this instruction's opcode."""
        return spec_for(self.opcode)

    @property
    def latency(self) -> int:
        """Stand-alone latency in cycles."""
        return self.spec.latency

    @property
    def resource(self) -> ResourceClass:
        """Functional unit occupied within a packet."""
        return self.spec.resource

    @cached_property
    def read_registers(self) -> Tuple[str, ...]:
        """All registers the instruction reads, implicit operands included.

        Accumulate-in-place opcodes (``spec.accumulates``) read their
        destination even when the emitter did not repeat it in
        ``srcs`` — the register choreography of ``vd += vin * w``.
        Order is ``srcs`` first, then any implicit accumulator reads.
        """
        if self.spec.accumulates:
            implicit = tuple(d for d in self.dests if d not in self.srcs)
            if implicit:
                return self.srcs + implicit
        return self.srcs

    @cached_property
    def read_set(self) -> frozenset:
        """``read_registers`` as a set, for dependency classification."""
        return frozenset(self.read_registers)

    @cached_property
    def write_set(self) -> frozenset:
        """``dests`` as a set, for dependency classification."""
        return frozenset(self.dests)

    @property
    def written_registers(self) -> Tuple[str, ...]:
        """All registers the instruction writes."""
        return self.dests

    def reads(self, register: str) -> bool:
        """Whether the instruction reads ``register`` (implicit included)."""
        return register in self.read_registers

    def writes(self, register: str) -> bool:
        """Whether the instruction writes ``register``."""
        return register in self.dests

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dst = ",".join(self.dests)
        src = ",".join(self.srcs)
        imm = ",".join(str(i) for i in self.imms)
        parts = [p for p in (dst, src, imm) if p]
        body = " ".join(parts)
        note = f"  ; {self.comment}" if self.comment else ""
        return f"<{self.uid}: {self.opcode.value} {body}{note}>"


def vector_instruction(opcode: Opcode) -> bool:
    """Whether ``opcode`` executes on the vector (HVX) side."""
    return spec_for(opcode).resource in (
        ResourceClass.VMULT,
        ResourceClass.VALU,
        ResourceClass.VSHIFT,
        ResourceClass.VPERMUTE,
        ResourceClass.VMEM,
    )
