"""Machine-level end-to-end tests: whole programs on the simulator.

The strongest correctness property in the repository: a generated
matmul program executed through *any* packer's schedule must leave the
same bytes in simulated memory as the sequential execution, and both
must equal numpy's answer.
"""

import numpy as np
import pytest

from repro.codegen.program import (
    build_matmul_program,
    run_packed,
    run_sequential,
)
from repro.core.packing.baselines import (
    pack_list_schedule,
    pack_soft_to_hard,
    pack_soft_to_none,
)
from repro.core.packing.sda import pack_best, pack_instructions
from repro.errors import CodegenError
from tests.conftest import assert_schedule_legal

PACKERS = [
    pack_instructions,
    pack_best,
    pack_soft_to_hard,
    pack_soft_to_none,
    pack_list_schedule,
]

SHAPES = [(8, 4, 3), (32, 8, 4), (40, 7, 5), (64, 12, 2)]


def _operands(shape):
    m, k, n = shape
    rng = np.random.default_rng(m * 100 + k * 10 + n)
    a = rng.integers(-128, 128, size=(m, k)).astype(np.int8)
    b = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
    return a, b


class TestSequentialExecution:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_numpy(self, shape):
        a, b = _operands(shape)
        program = build_matmul_program(a.shape, b)
        result, cycles = run_sequential(program, a)
        expected = a.astype(np.int32) @ b.astype(np.int32)
        assert (result == expected).all()
        assert cycles > 0

    def test_program_is_straight_line(self):
        a, b = _operands((8, 4, 3))
        program = build_matmul_program(a.shape, b)
        from repro.isa.instructions import Opcode

        assert all(
            inst.opcode
            in (Opcode.VLOAD, Opcode.VRMPY, Opcode.VSPLAT, Opcode.VSTORE)
            for inst in program.instructions
        )

    def test_bad_dims_rejected(self):
        with pytest.raises(CodegenError):
            build_matmul_program((4, 5), np.zeros((6, 2), np.int8))


class TestPackedExecution:
    @pytest.mark.parametrize("shape", SHAPES[:2])
    @pytest.mark.parametrize("packer", PACKERS)
    def test_any_schedule_preserves_semantics(self, shape, packer):
        a, b = _operands(shape)
        program = build_matmul_program(a.shape, b)
        assert_schedule_legal(
            packer(program.instructions), program.instructions
        )
        sequential, _ = run_sequential(program, a)
        packed, _ = run_packed(program, a, packer)
        assert (packed == sequential).all()

    def test_packing_saves_cycles(self):
        a, b = _operands((32, 8, 4))
        program = build_matmul_program(a.shape, b)
        _, sequential_cycles = run_sequential(program, a)
        _, packed_cycles = run_packed(program, a, pack_best)
        assert packed_cycles < sequential_cycles

    def test_sda_at_least_as_good_as_soft_to_hard_here(self):
        a, b = _operands((40, 7, 5))
        program = build_matmul_program(a.shape, b)
        _, best = run_packed(program, a, pack_best)
        _, hard = run_packed(program, a, pack_soft_to_hard)
        assert best <= hard
