"""Golden packing digests: the packets themselves, and the effort spent.

``baselines/packing/<machine>.json`` holds, per zoo model compiled under
default options, the sha256 over every compiled node's packet sequence
(each packet as the index list of its instructions in the node's
``schedule_body``) with its ``cycles`` and the model's ``total_cycles``,
plus ``total_packets``, the kernel bodies packed, and the packing
stage's exact **work counter** — pair classifications + candidate
evaluations, ``CompilationDiagnostics.packing_work``.  The counter is a
ratchet: the test asserts ``<=`` and a regeneration tightens it.  A
packer change that flips one tie keeps ``total_cycles`` often enough to
pass the benchmark's cycle gate; it cannot keep the digest.

``baselines/packing/random.json`` covers what the zoo does not reach:
``pack_block`` under the three soft modes and ``pack_list_schedule`` on
every machine, over seeded random basic blocks.  There is one packer
implementation; these digests are its reference.

No wall time is asserted here.  Regenerate (only when packets are
*meant* to move, or to tighten the counters)::

    PYTHONPATH=src python -m tests.test_packing_golden
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from typing import Callable, Dict, List, Sequence

import numpy as np
import pytest

from repro.compiler import CompiledModel, CompilerOptions, compile_model
from repro.core.packing import (
    SdaConfig,
    pack_best,
    pack_block,
    pack_list_schedule,
    packing_work,
)
from repro.isa.instructions import Instruction, Opcode
from repro.machine.description import machine_names, resolve_machine
from repro.machine.packet import Packet
from repro.machine.pipeline import schedule_cycles
from repro.models.registry import build_model, model_names
from tests.conftest import assert_schedule_legal

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "baselines",
    "packing",
)

# -- the zoo ----------------------------------------------------------


def packet_indices(
    packets: Sequence[Packet], body: Sequence[Instruction]
) -> List[List[int]]:
    """Packets as index lists into ``body`` (uids are process-local)."""
    index_of = {inst.uid: i for i, inst in enumerate(body)}
    return [[index_of[inst.uid] for inst in packet] for packet in packets]


def model_digest(compiled: CompiledModel) -> str:
    rows = [
        [packet_indices(node.packets, node.schedule_body), node.cycles]
        for node in compiled.nodes
    ]
    payload = json.dumps([rows, compiled.total_cycles])
    return hashlib.sha256(payload.encode()).hexdigest()


def golden_entry(model_name: str, machine: str) -> Dict[str, object]:
    compiled = compile_model(
        build_model(model_name), CompilerOptions(machine=machine)
    )
    diagnostics = compiled.diagnostics
    # One packing path: every schedule-cache miss is a body this
    # process packed, so the work counter sees all of the packing.
    assert diagnostics.packing_bodies == diagnostics.cache_misses
    return {
        "digest": model_digest(compiled),
        "total_packets": compiled.total_packets,
        "bodies": diagnostics.packing_bodies,
        "work": diagnostics.packing_work,
    }


def load_golden(name: str) -> Dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=None)
def _entry(model_name: str, machine: str) -> Dict[str, object]:
    """One compile per cell, shared by the tests below."""
    return golden_entry(model_name, machine)


CELLS = [
    (model_name, machine)
    for machine in machine_names()
    for model_name in model_names()
]


def test_golden_files_cover_the_zoo():
    for machine in machine_names():
        assert sorted(load_golden(machine)["models"]) == sorted(
            model_names()
        )


@pytest.mark.parametrize("model_name,machine", CELLS)
def test_packets_match_golden(model_name, machine):
    golden = load_golden(machine)["models"][model_name]
    entry = _entry(model_name, machine)
    assert entry["bodies"] == golden["bodies"]
    assert entry["total_packets"] == golden["total_packets"]
    assert entry["digest"] == golden["digest"]


@pytest.mark.parametrize("model_name,machine", CELLS)
def test_work_never_above_recorded(model_name, machine):
    golden = load_golden(machine)["models"][model_name]
    assert 0 < _entry(model_name, machine)["work"] <= golden["work"]


# -- random basic blocks ----------------------------------------------

RANDOM_BLOCKS = 200
RANDOM_SEED = 16
SOFT_MODES = ("sda", "none", "hard")
_VREGS = [f"v{i}" for i in range(10)]
_SREGS = [f"r{i}" for i in range(4)]


def random_block(rnd: random.Random) -> List[Instruction]:
    """A straight-line block over a small register pool.

    Few registers, many instructions: WAW, WAR and both RAW flavours
    all occur, so do implicit accumulator reads (``vrmpy``/``vtmpy``
    with the destination left out of ``srcs``) and resource-bound
    runs (shifts, permutes, stores).  Lengths 0 and 1 are drawn too.
    """
    length = rnd.choice([0, 1, 2, 4, 6, 9, 13, 18, 24, 31, 39, 48, 58, 70])
    block: List[Instruction] = []

    def v() -> str:
        return rnd.choice(_VREGS)

    def r() -> str:
        return rnd.choice(_SREGS)

    for i in range(length):
        roll = rnd.random()
        if roll < 0.18:
            inst = Instruction(
                Opcode.VLOAD, dests=(v(),), srcs=(r(),), imms=(i * 128,)
            )
        elif roll < 0.30:
            inst = Instruction(
                Opcode.VSTORE, srcs=(v(), r()), imms=(i * 128,)
            )
        elif roll < 0.48:
            inst = Instruction(
                rnd.choice([Opcode.VADD, Opcode.VSUB, Opcode.VMAX,
                            Opcode.VAVG, Opcode.VSPLAT]),
                dests=(v(),), srcs=(v(), v()),
            )
        elif roll < 0.62:
            # Accumulate forms: the destination is an implicit read.
            inst = Instruction(
                rnd.choice([Opcode.VRMPY, Opcode.VTMPY]),
                dests=(v(),), srcs=(v(),), imms=(1, 2, 3, 4),
            )
        elif roll < 0.70:
            inst = Instruction(
                rnd.choice([Opcode.VMPY, Opcode.VMPA]),
                dests=(v(),), srcs=(v(), v()), imms=(1, 2, 3, 4),
            )
        elif roll < 0.78:
            inst = Instruction(
                rnd.choice([Opcode.VASR, Opcode.VSHUFF]),
                dests=(v(),), srcs=(v(), v()), imms=(3,),
            )
        elif roll < 0.90:
            inst = Instruction(
                rnd.choice([Opcode.ADD, Opcode.SUB, Opcode.MUL,
                            Opcode.SHIFT]),
                dests=(r(),), srcs=(r(),), imms=(128,),
            )
        elif roll < 0.95:
            inst = Instruction(Opcode.LOAD, dests=(r(),), srcs=(r(),))
        else:
            inst = Instruction(Opcode.STORE, srcs=(r(), r()))
        block.append(inst)
    return block


def random_blocks() -> List[List[Instruction]]:
    rnd = random.Random(RANDOM_SEED)
    return [random_block(rnd) for _ in range(RANDOM_BLOCKS)]


def random_packers(machine) -> Dict[str, Callable]:
    """``label -> packer`` for the random blocks on one machine."""
    packers = {
        f"pack_block[{mode}]": functools.partial(
            pack_block, config=SdaConfig(soft_mode=mode), machine=machine,
        )
        for mode in SOFT_MODES
    }
    packers["pack_list_schedule"] = functools.partial(
        pack_list_schedule, machine=machine
    )
    return packers


def random_entries() -> Dict[str, Dict[str, Dict[str, object]]]:
    """``machine -> packer -> per-block digests, packets, cycles, work``.

    Every schedule must also pass the lint legality rules.
    """
    blocks = random_blocks()
    result: Dict[str, Dict[str, Dict[str, object]]] = {}
    for machine_name in machine_names():
        machine = resolve_machine(machine_name)
        result[machine_name] = {}
        for label, packer in random_packers(machine).items():
            with packing_work() as work:
                schedules = [packer(block) for block in blocks]
            digests, packets_total, cycles = [], 0, 0
            for block, packets in zip(blocks, schedules):
                assert_schedule_legal(packets, block, machine)
                indices = json.dumps(packet_indices(packets, block))
                digests.append(
                    hashlib.sha256(indices.encode()).hexdigest()[:10]
                )
                packets_total += len(packets)
                cycles += schedule_cycles(packets, machine)
            result[machine_name][label] = {
                "blocks": digests,
                "packets": packets_total,
                "cycles": cycles,
                "work": work.total,
            }
    return result


@functools.lru_cache(maxsize=None)
def _random_entries():
    return random_entries()


RANDOM_CELLS = [
    (machine, label)
    for machine in machine_names()
    for label in [f"pack_block[{mode}]" for mode in SOFT_MODES]
    + ["pack_list_schedule"]
]


def test_random_blocks_cover_the_edge_cases():
    lengths = {len(block) for block in random_blocks()}
    assert {0, 1} <= lengths and max(lengths) >= 50


@pytest.mark.parametrize("machine,label", RANDOM_CELLS)
def test_random_blocks_match_golden(machine, label):
    golden = load_golden("random")["machines"][machine][label]
    entry = _random_entries()[machine][label]
    differing = [
        index
        for index, (got, want) in enumerate(
            zip(entry["blocks"], golden["blocks"])
        )
        if got != want
    ]
    assert not differing, f"blocks {differing[:10]} pack differently"
    assert len(entry["blocks"]) == len(golden["blocks"])
    assert entry["packets"] == golden["packets"]
    assert entry["cycles"] == golden["cycles"]
    assert entry["work"] <= golden["work"]


# -- scaling, on the counter rather than the clock --------------------


def straight_line_block(length: int) -> List[Instruction]:
    """A long unrolled streaming kernel body: one basic block."""
    block: List[Instruction] = []
    step = 0
    while len(block) < length:
        k, acc = step % 8, f"acc{step % 4}"
        block += [
            Instruction(Opcode.VLOAD, dests=(f"va{k}",), srcs=("r_in",),
                        imms=(step * 256,)),
            Instruction(Opcode.VLOAD, dests=(f"vb{k}",), srcs=("r_in",),
                        imms=(step * 256 + 128,)),
            Instruction(Opcode.VRMPY, dests=(acc,), srcs=(f"va{k}",),
                        imms=(1, 2, 3, 4)),
            Instruction(Opcode.VADD, dests=(f"vs{k}",),
                        srcs=(f"vb{k}", acc)),
            Instruction(Opcode.VASR, dests=(f"vq{k}",),
                        srcs=(f"vs{k}", f"vs{k}"), imms=(7,)),
            Instruction(Opcode.VSTORE, srcs=(f"vq{k}", "r_out"),
                        imms=(step * 128,)),
            Instruction(Opcode.ADD, dests=("r_count",),
                        srcs=("r_count",), imms=(1,)),
        ]
        step += 1
    return block[:length]


def test_work_grows_at_most_quadratically():
    # Doubling a block at most ~quadruples the packing work: the pair
    # classification is the only quadratic term (the packer this
    # replaced also re-derived the critical path per packet and
    # rescanned every instruction per slot, ~n^2.4 in wall time).
    lengths = (200, 400, 800)
    works = []
    for length in lengths:
        with packing_work() as work:
            pack_best(straight_line_block(length))
        works.append(work.total)
    exponent = np.polyfit(np.log(lengths), np.log(works), 1)[0]
    assert exponent <= 2.2, (works, exponent)


@pytest.mark.parametrize("machine", machine_names())
def test_long_block_packs_without_recursion(machine):
    block = straight_line_block(800)
    packets = pack_best(block, machine=resolve_machine(machine))
    assert_schedule_legal(packets, block, machine)


def _write(name: str, payload: Dict) -> None:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for machine in machine_names():
        _write(machine, {
            "machine": machine,
            "models": {
                model_name: golden_entry(model_name, machine)
                for model_name in model_names()
            },
        })
    _write("random", {
        "seed": RANDOM_SEED,
        "machines": random_entries(),
    })
