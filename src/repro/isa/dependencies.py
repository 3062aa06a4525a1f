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
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.isa.instructions import Instruction


@dataclass
class PackingWork:
    """Exact effort counters of the packers run under :func:`packing_work`.

    ``classifications`` counts dependency classifications of an
    instruction pair, ``evaluations`` counts candidates tested against
    a partial packet.  Both repeat exactly from run to run, so they
    gate packing effort where wall time cannot
    (``tests/test_packing_golden.py``).
    """

    classifications: int = 0
    evaluations: int = 0

    @property
    def total(self) -> int:
        return self.classifications + self.evaluations


_ACTIVE_WORK: ContextVar[Optional[PackingWork]] = ContextVar(
    "packing_work", default=None
)


@contextmanager
def packing_work() -> Iterator[PackingWork]:
    """Count the packing effort spent inside the ``with`` block.

    The counter is context-local (one per thread or task), because the
    registry's packers are plain ``body -> packets`` callables with no
    channel for a second result.
    """
    work = PackingWork()
    token = _ACTIVE_WORK.set(work)
    try:
        yield work
    finally:
        _ACTIVE_WORK.reset(token)


class DependencyKind(enum.Enum):
    """Packing implication of a dependency between two instructions."""

    NONE = "none"
    SOFT = "soft"
    HARD = "hard"

    @property
    def blocks_packing(self) -> bool:
        """Whether the pair must never share a packet."""
        return self is DependencyKind.HARD


def _raw_registers(first: Instruction, second: Instruction) -> frozenset:
    """Registers written by ``first`` and read by ``second``.

    Reads include implicit operands (``Instruction.read_registers``):
    the accumulator of a ``vrmpy`` accumulate form is read even when an
    emitter left it out of ``srcs``.  Note that an implicit read of a
    destination always coincides with a WAW on the same register, so
    this widening never *relaxes* a classification — it only keeps
    liveness-style consumers of this module sound.
    """
    return frozenset(first.dests) & frozenset(second.read_registers)


def _war_registers(first: Instruction, second: Instruction) -> frozenset:
    """Registers read by ``first`` and written by ``second``."""
    return frozenset(first.read_registers) & frozenset(second.dests)


def _waw_registers(first: Instruction, second: Instruction) -> frozenset:
    """Registers written by both instructions."""
    return frozenset(first.dests) & frozenset(second.dests)


def classify_dependency(first: Instruction, second: Instruction) -> DependencyKind:
    """Classify the dependency from ``first`` (earlier) to ``second`` (later).

    The strongest applicable class wins: if the pair has both a soft RAW
    and a WAW on different registers, the WAW makes it hard.

    Parameters
    ----------
    first, second:
        Instructions in original program order.

    Returns
    -------
    DependencyKind
        ``HARD``, ``SOFT`` or ``NONE``.
    """
    work = _ACTIVE_WORK.get()
    if work is not None:
        work.classifications += 1
    if first.uid == second.uid:
        return DependencyKind.NONE

    kind = DependencyKind.NONE

    if _waw_registers(first, second):
        return DependencyKind.HARD

    if _raw_registers(first, second):
        from repro.isa.instructions import ResourceClass

        if (
            first.spec.is_load
            or second.spec.is_store
            or first.spec.resource is ResourceClass.SALU
        ):
            # The architecture's interlocked soft cases: read-after-load
            # and store-after-write (Figure 4), and consuming a scalar
            # ALU result (Section IV-C's worked example).  Correct in
            # one packet, at the price of a stall.
            kind = DependencyKind.SOFT
        else:
            return DependencyKind.HARD

    if _war_registers(first, second):
        # WAR inside a packet is always tolerated: all reads happen in
        # the read stage before any write lands.
        if kind is DependencyKind.NONE:
            kind = DependencyKind.SOFT

    return kind


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
    :attr:`Instruction.read_registers`, so a RAW edge running through
    an *implicit* accumulator operand (``vrmpy``/``vtmpy`` accumulate
    forms) stalls exactly like an explicit one — ``srcs`` alone would
    undercount it.  Every timing consumer (the pipeline model, the
    lint stall estimator) must derive stalls from this one rule so
    their cycle counts agree even on corrupted packets.
    """
    raw = _raw_registers(first, second)
    if not raw:
        return frozenset()
    from repro.isa.instructions import ResourceClass

    if (
        first.spec.is_load
        or second.spec.is_store
        or first.spec.resource is ResourceClass.SALU
    ):
        return raw
    return frozenset()
