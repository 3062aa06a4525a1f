"""Tests for SDA packing (Algorithm 1) and its baselines.

Property test: every packer must produce a *legal* schedule for any
program — all instructions packed once, resource limits respected, no
dependency reordered, no hard pair sharing a packet.
"""

import random

import pytest

from repro.codegen.elementwise import emit_division_body, emit_elementwise_body
from repro.codegen.matmul import emit_matmul_body
from repro.core.packing.baselines import (
    pack_list_schedule,
    pack_soft_to_hard,
    pack_soft_to_none,
)
from repro.core.packing.evaluate import schedule_summary, validate_schedule
from repro.core.packing.sda import (
    SdaConfig,
    pack_best,
    pack_block,
    pack_instructions,
)
from repro.isa.instructions import Instruction, Opcode
from repro.machine.pipeline import schedule_cycles
from tests.conftest import stream_program

ALL_PACKERS = [
    pack_instructions,
    pack_soft_to_hard,
    pack_soft_to_none,
    pack_list_schedule,
    pack_best,
]


def _random_program(seed: int, length: int = 25):
    """Random but well-formed vector program."""
    rnd = random.Random(seed)
    program = []
    live = ["v_init"]
    program.append(
        Instruction(Opcode.VLOAD, dests=("v_init",), srcs=("r_base",))
    )
    for i in range(length):
        roll = rnd.random()
        if roll < 0.25:
            program.append(
                Instruction(
                    Opcode.VLOAD, dests=(f"v_l{i}",), srcs=("r_base",),
                    imms=(i * 128,),
                )
            )
            live.append(f"v_l{i}")
        elif roll < 0.5:
            srcs = (rnd.choice(live), rnd.choice(live))
            program.append(
                Instruction(
                    rnd.choice([Opcode.VADD, Opcode.VSUB, Opcode.VMAX]),
                    dests=(f"v_a{i}",),
                    srcs=srcs,
                )
            )
            live.append(f"v_a{i}")
        elif roll < 0.7:
            program.append(
                Instruction(
                    Opcode.VRMPY,
                    dests=(f"v_m{i}",),
                    srcs=(rnd.choice(live),),
                    imms=(1, 2, 3, 4),
                )
            )
            live.append(f"v_m{i}")
        elif roll < 0.85:
            program.append(
                Instruction(
                    Opcode.VSTORE, srcs=(rnd.choice(live), "r_out"),
                    imms=(i * 128,),
                )
            )
        else:
            program.append(
                Instruction(
                    Opcode.ADD, dests=("r_base",), srcs=("r_base",),
                    imms=(128,),
                )
            )
    return program


class TestScheduleValidity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("packer", ALL_PACKERS)
    def test_random_programs_pack_legally(self, seed, packer):
        program = _random_program(seed)
        packets = packer(program)
        validate_schedule(packets, program)

    @pytest.mark.parametrize("packer", ALL_PACKERS)
    def test_kernel_bodies_pack_legally(self, packer):
        for body in (
            emit_matmul_body(Opcode.VRMPY, 4, 4, include_epilogue=True),
            emit_matmul_body(Opcode.VMPY, 2, 2, include_epilogue=True),
            emit_elementwise_body("Add", 3, unroll=2),
            emit_division_body(),
        ):
            validate_schedule(packer(body), body)

    @pytest.mark.parametrize("packer", ALL_PACKERS)
    def test_single_instruction_program(self, packer):
        program = [Instruction(Opcode.NOP)]
        packets = packer(program)
        validate_schedule(packets, program)
        assert len(packets) == 1

    @pytest.mark.parametrize("packer", ALL_PACKERS)
    def test_empty_program(self, packer):
        assert packer([]) == []


class TestSdaBehaviour:
    def test_soft_pairs_can_share_a_packet(self):
        # The Figure 5 story: SDA merges soft-linked work that the
        # soft_to_hard variant must split.
        program = stream_program()
        sda = schedule_summary(pack_instructions(program))
        hard = schedule_summary(pack_soft_to_hard(program))
        assert sda.packets <= hard.packets

    def test_soft_to_hard_never_packs_dependent_pairs(self):
        program = stream_program()
        for packet in pack_soft_to_hard(program):
            assert packet.soft_pairs() == []

    def test_sda_cheaper_or_equal_on_aggregate(self):
        bodies = [
            emit_matmul_body(Opcode.VRMPY, 4, 4, include_epilogue=True),
            emit_matmul_body(Opcode.VMPY, 1, 1, include_epilogue=True),
            emit_elementwise_body("Add", 3, unroll=1),
            stream_program(),
        ]
        total = {"best": 0, "hard": 0, "none": 0}
        for body in bodies:
            total["best"] += schedule_cycles(pack_best(body))
            total["hard"] += schedule_cycles(pack_soft_to_hard(body))
            total["none"] += schedule_cycles(pack_soft_to_none(body))
        assert total["best"] <= total["hard"]
        assert total["best"] <= total["none"]

    def test_pack_best_never_worse_than_ablations(self):
        for seed in range(5):
            program = _random_program(seed)
            best = schedule_cycles(pack_best(program))
            assert best <= schedule_cycles(pack_soft_to_hard(program))
            assert best <= schedule_cycles(pack_soft_to_none(program))

    def test_fewer_packets_than_list_scheduling(self):
        # Figure 7 right: GCD2's packer emits fewer packets.
        body = emit_matmul_body(Opcode.VMPY, 4, 4, include_epilogue=True)
        sda = schedule_summary(pack_instructions(body))
        lst = schedule_summary(pack_list_schedule(body))
        assert sda.packets < lst.packets


class TestSdaConfig:
    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            SdaConfig(w=1.5)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SdaConfig(soft_mode="bogus")

    def test_modes_change_schedules(self):
        program = stream_program()
        cycles = {
            mode: schedule_cycles(
                pack_instructions(program, SdaConfig(soft_mode=mode))
            )
            for mode in ("sda", "hard", "none")
        }
        assert len(set(cycles.values())) >= 2  # not all identical


class TestSelectInstruction:
    """Determinism and efficiency of Equation 4's candidate selection,
    observed through ``pack_block`` — the one place it lives."""

    def _tied_candidates(self):
        # Three independent VADDs: identical opcode/latency, no
        # dependencies, so every Equation 4 score ties exactly.  The
        # Hexagon-698 issues two VALU operations per packet, so the
        # seed takes exactly one of the other two along.
        a = Instruction(Opcode.VADD, dests=("v0",), srcs=("v1", "v2"))
        b = Instruction(Opcode.VADD, dests=("v3",), srcs=("v4", "v5"))
        seed = Instruction(Opcode.VADD, dests=("v6",), srcs=("v7", "v8"))
        return a, b, seed

    def test_ties_break_to_first_candidate(self):
        # Regression: `score >= best_score` kept the *last* tied
        # candidate, so schedules depended on candidate ordering.
        seed, a, b = self._tied_candidates()
        packets = pack_block([seed, a, b])  # seed: first of equal paths
        assert [p.instructions for p in packets] == [[b], [seed, a]]

    def test_tie_break_is_input_order_stable(self):
        seed, a, b = self._tied_candidates()
        packets = pack_block([seed, b, a])
        # First-best over the candidates in program order.
        assert [p.instructions for p in packets] == [[a], [seed, b]]

    def test_stalls_evaluated_once_per_candidate(self, monkeypatch):
        # Regression: the stall count was computed twice per candidate
        # (once filtering, once scoring).  Now each candidate x member
        # pair is looked at once, when the later of the two arrives.
        from repro.core.packing import sda as sda_mod

        load = Instruction(
            Opcode.VLOAD, dests=("v0",), srcs=("r0",), imms=(0,)
        )
        consumer = Instruction(
            Opcode.VADD, dests=("v1",), srcs=("v0", "v2")
        )
        other = Instruction(
            Opcode.VADD, dests=("v3",), srcs=("v4", "v5")
        )
        calls = []
        original = sda_mod.stalling_raw_registers

        def counting(first, second):
            calls.append((first.uid, second.uid))
            return original(first, second)

        monkeypatch.setattr(sda_mod, "stalling_raw_registers", counting)
        packets = pack_block([load, consumer, other])
        # The consumer seeds; the stall-free VADD is preferred, then
        # the load fills the packet at the price of its stall.
        assert [p.instructions for p in packets] == [
            [consumer, other, load]
        ]
        assert calls == [(load.uid, consumer.uid)]


class TestSdaConfigValidation:
    def test_defaults_are_the_paper_constants(self):
        config = SdaConfig()
        assert config.w == 0.7
        assert config.soft_penalty == 8.0
        assert config.soft_mode == "sda"

    @pytest.mark.parametrize("w", [-0.1, 1.5])
    def test_w_outside_unit_interval_rejected(self, w):
        with pytest.raises(ValueError, match="w must be"):
            SdaConfig(w=w)

    @pytest.mark.parametrize(
        "penalty",
        [-1.0, -0.001, float("nan"), float("inf"), float("-inf"),
         "8.0", None, True],
    )
    def test_bad_soft_penalty_rejected(self, penalty):
        with pytest.raises(ValueError, match="soft_penalty"):
            SdaConfig(soft_penalty=penalty)

    def test_zero_soft_penalty_allowed(self):
        assert SdaConfig(soft_penalty=0.0).soft_penalty == 0.0

    def test_unknown_soft_mode_rejected(self):
        with pytest.raises(ValueError, match="soft_mode"):
            SdaConfig(soft_mode="fuzzy")

    def test_configured_packer_resolves_tuned_configs(self):
        from repro.core.packing import PACKERS, configured_packer

        body = emit_matmul_body(Opcode.VRMPY, 2, 2)
        default = configured_packer("sda", None)
        assert default is PACKERS["sda"]
        tuned = configured_packer("sda", SdaConfig(w=0.5, soft_penalty=2.0))
        packets = tuned(body)
        validate_schedule(packets, body)

    def test_configured_packer_unknown_name(self):
        from repro.core.packing import configured_packer

        with pytest.raises(KeyError):
            configured_packer("magic", SdaConfig())
