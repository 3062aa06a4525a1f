"""Tests for the packing infrastructure: CFG, IDG, schedule validation."""

import pytest

from repro.core.packing.cfg import BasicBlock, build_cfg, kernel_block
from repro.core.packing.evaluate import validate_schedule
from repro.core.packing.idg import build_idg
from repro.errors import SchedulingError
from repro.isa.dependencies import DependencyKind, classify_dependency
from repro.isa.instructions import Instruction, Opcode
from repro.machine.packet import Packet
from tests.conftest import stream_program


class TestCfg:
    def test_straight_line_is_one_block(self):
        program = stream_program()
        blocks = build_cfg(program)
        assert len(blocks) == 1
        assert len(blocks[0]) == len(program)

    def test_branches_split_blocks(self):
        program = [
            Instruction(Opcode.VLOAD, dests=("v0",), srcs=("r0",)),
            Instruction(Opcode.LOOP, srcs=("r_count",)),
            Instruction(Opcode.VSTORE, srcs=("v0", "r1")),
        ]
        blocks = build_cfg(program)
        assert [len(b) for b in blocks] == [2, 1]
        assert blocks[0].terminator.opcode is Opcode.LOOP

    def test_kernel_block_is_largest(self):
        program = [
            Instruction(Opcode.NOP),
            Instruction(Opcode.JUMP),
            Instruction(Opcode.VLOAD, dests=("v0",), srcs=("r0",)),
            Instruction(Opcode.VADD, dests=("v1",), srcs=("v0", "v0")),
            Instruction(Opcode.VSTORE, srcs=("v1", "r1")),
        ]
        blocks = build_cfg(program)
        assert len(kernel_block(blocks)) == 3

    def test_kernel_block_of_empty(self):
        assert len(kernel_block([])) == 0


class TestIdg:
    def test_edges_carry_classification(self):
        program = stream_program(operands=2)
        idg = build_idg(program)
        load0, load1, add = program[0], program[1], program[2]
        assert idg.edge_kind(load0, add) is DependencyKind.SOFT
        assert idg.edge_kind(load0, load1) is DependencyKind.NONE

    def test_order_is_depth_from_entry(self):
        program = stream_program(operands=2)
        idg = build_idg(program)
        assert idg.order_of(program[0]) == 0       # load
        assert idg.order_of(program[2]) == 1       # add
        assert idg.order_of(program[3]) > 1        # shuffle

    def test_pred_count(self):
        program = stream_program(operands=3)
        idg = build_idg(program)
        add2 = program[4]  # second add: depends on first add and load
        assert idg.pred_count(add2) >= 2

    def test_critical_path_starts_at_entry_and_descends(self):
        program = stream_program()
        idg = build_idg(program)
        path = idg.critical_path()
        assert idg.order_of(path[0]) == 0
        for earlier, later in zip(path, path[1:]):
            assert later in idg.successors(earlier)

    def test_critical_path_ends_at_first_costliest_instruction(self):
        program = stream_program()
        idg = build_idg(program)
        tail = idg.critical_path()[-1]
        costliest = max(idg.path_cost)
        assert program.index(tail) == idg.path_cost.index(costliest)
        assert idg.successors(tail) == {}

    def test_kind_answers_both_directions_once(self):
        # Program order is the edge; the reverse direction (which the
        # packet legality rule also asks about) is classified on first
        # use and remembered.
        program = stream_program(operands=2)
        idg = build_idg(program)
        load0, add = program[0], program[2]
        assert idg.kind(load0, add) is classify_dependency(load0, add)
        before = idg.work.classifications
        assert idg.kind(add, load0) is classify_dependency(add, load0)
        assert idg.work.classifications == before + 1
        idg.kind(add, load0)
        assert idg.work.classifications == before + 1


class TestValidateSchedule:
    def test_detects_missing_instruction(self):
        program = stream_program()
        packets = [Packet([program[0]])]
        with pytest.raises(SchedulingError):
            validate_schedule(packets, program)

    def test_detects_double_packing(self):
        program = [Instruction(Opcode.NOP), Instruction(Opcode.NOP)]
        packets = [Packet([program[0]]), Packet([program[0]])]
        with pytest.raises(SchedulingError):
            validate_schedule(packets, program)

    def test_detects_reordered_dependency(self):
        load = Instruction(Opcode.VLOAD, dests=("v0",), srcs=("r0",))
        use = Instruction(Opcode.VADD, dests=("v1",), srcs=("v0", "v0"))
        packets = [Packet([use]), Packet([load])]
        with pytest.raises(SchedulingError):
            validate_schedule(packets, [load, use])

    def test_accepts_legal_schedule(self):
        load = Instruction(Opcode.VLOAD, dests=("v0",), srcs=("r0",))
        use = Instruction(Opcode.VADD, dests=("v1",), srcs=("v0", "v0"))
        validate_schedule([Packet([load]), Packet([use])], [load, use])

    def test_accepts_soft_pair_in_one_packet(self):
        load = Instruction(Opcode.VLOAD, dests=("v0",), srcs=("r0",))
        use = Instruction(Opcode.VADD, dests=("v1",), srcs=("v0", "v0"))
        validate_schedule([Packet([load, use])], [load, use])
