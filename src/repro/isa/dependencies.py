"""Hard/soft dependency classification between instructions.

Section IV-C of the paper splits dependencies by their implication for
packing two instructions into the same VLIW packet:

* **hard** — packing the pair would produce incorrect results;
* **soft** — packing is correct but costs a pipeline stall;
* **none** — no relationship.

The paper's footnote pins the hardware rule: soft dependencies can only
be RAW or WAR, and its two worked examples (Figure 4) are (a) a load
feeding a consumer and (b) an arithmetic result feeding a store.  The
classification below encodes exactly that:

==========  =======================================  ========
dependence  pattern                                  class
==========  =======================================  ========
RAW         load -> any consumer                     soft
RAW         scalar ALU -> any consumer               soft
RAW         any producer -> store (data operand)     soft
RAW         vector arithmetic -> vector arithmetic   hard
WAR         any                                      soft
WAW         any                                      hard
==========  =======================================  ========

The scalar-ALU row is the paper's own example: "the soft dependency in
our target architecture is the one between a scalar addition operation
and a consumer of the result of such an addition".
"""

from __future__ import annotations

import enum

from repro.isa.instructions import Instruction, ResourceClass


class DependencyKind(enum.Enum):
    """Packing implication of a dependency between two instructions."""

    NONE = "none"
    SOFT = "soft"
    HARD = "hard"

    @property
    def blocks_packing(self) -> bool:
        """Whether the pair must never share a packet."""
        return self is DependencyKind.HARD


def _interlocked(first: Instruction, second: Instruction) -> bool:
    """Whether hardware interlocks cover a RAW from ``first`` to ``second``.

    The architecture's soft cases: read-after-load and
    store-after-write (Figure 4), and consuming a scalar ALU result
    (Section IV-C's worked example).  Correct in one packet, at the
    price of a stall.
    """
    return (
        first.spec.is_load
        or second.spec.is_store
        or first.spec.resource is ResourceClass.SALU
    )


def classify_dependency(first: Instruction, second: Instruction) -> DependencyKind:
    """Classify the dependency from ``first`` (earlier) to ``second`` (later).

    The strongest applicable class wins: if the pair has both a soft RAW
    and a WAW on different registers, the WAW makes it hard.  Reads
    include implicit operands (``Instruction.read_set``): the
    accumulator of a ``vrmpy`` accumulate form is read even when an
    emitter left it out of ``srcs``.  An implicit read of a destination
    always coincides with a WAW on the same register, so this widening
    never *relaxes* a classification — it only keeps liveness-style
    consumers of this module sound.

    Parameters
    ----------
    first, second:
        Instructions in original program order.

    Returns
    -------
    DependencyKind
        ``HARD``, ``SOFT`` or ``NONE``.
    """
    if first.uid == second.uid:
        return DependencyKind.NONE
    writes = first.write_set
    if not writes.isdisjoint(second.write_set):  # WAW
        return DependencyKind.HARD
    if not writes.isdisjoint(second.read_set):  # RAW
        if _interlocked(first, second):
            return DependencyKind.SOFT
        return DependencyKind.HARD
    if not first.read_set.isdisjoint(second.write_set):
        # WAR inside a packet is always tolerated: all reads happen in
        # the read stage before any write lands.
        return DependencyKind.SOFT
    return DependencyKind.NONE


def has_dependency(first: Instruction, second: Instruction) -> bool:
    """Whether any (hard or soft) dependency runs ``first`` -> ``second``."""
    return classify_dependency(first, second) is not DependencyKind.NONE


def stalling_raw_registers(
    first: Instruction, second: Instruction
) -> frozenset:
    """RAW registers from ``first`` to ``second`` that the interlock covers.

    This is the Figure 4 stall rule in operand form: a read-after-load,
    a store-after-write, or the consumption of a scalar-ALU result
    makes the consumer's execute stage wait one cycle when the pair
    shares a packet.  Reads are taken from
    :attr:`Instruction.read_set`, so a RAW edge running through
    an *implicit* accumulator operand (``vrmpy``/``vtmpy`` accumulate
    forms) stalls exactly like an explicit one — ``srcs`` alone would
    undercount it.  Every timing consumer (the pipeline model, the
    lint stall estimator) must derive stalls from this one rule so
    their cycle counts agree even on corrupted packets.
    """
    raw = first.write_set & second.read_set
    if raw and _interlocked(first, second):
        return raw
    return frozenset()
