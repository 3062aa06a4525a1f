"""Tests for the binary instruction/packet encoding."""

import pytest

from repro.codegen.elementwise import emit_elementwise_body
from repro.codegen.matmul import emit_matmul_body
from repro.core.packing.sda import pack_best
from repro.errors import IsaError
from repro.isa.encoding import (
    CODE_TO_OPCODE,
    OPCODE_TO_CODE,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.isa.instructions import Instruction, Opcode
from repro.machine.packet import Packet


def _roundtrip(packets):
    blob, names = encode_program(packets)
    return decode_program(blob, names)


class TestOpcodeTable:
    def test_bijective(self):
        assert len(OPCODE_TO_CODE) == len(CODE_TO_OPCODE) == len(Opcode)
        for opcode, code in OPCODE_TO_CODE.items():
            assert CODE_TO_OPCODE[code] is opcode

    def test_fits_in_six_bits(self):
        assert max(OPCODE_TO_CODE.values()) < 64


class TestRoundtrip:
    @pytest.mark.parametrize(
        "body_factory",
        [
            lambda: emit_matmul_body(Opcode.VRMPY, 2, 2, include_epilogue=True),
            lambda: emit_matmul_body(Opcode.VMPA, 1, 2, include_epilogue=True),
            lambda: emit_elementwise_body("Add", 3, unroll=2),
        ],
    )
    def test_kernel_bodies_roundtrip(self, body_factory):
        body = body_factory()
        packets = pack_best(body)
        decoded = _roundtrip(packets)
        assert len(decoded) == len(packets)
        for original, restored in zip(packets, decoded):
            assert len(restored) == len(original)
            for a, b in zip(original, restored):
                assert a.opcode is b.opcode
                assert a.dests == b.dests
                assert a.srcs == b.srcs
                assert a.lane_bytes == b.lane_bytes
                assert tuple(i & 0xFFFFFFFF for i in a.imms) == b.imms

    def test_packet_boundaries_preserved(self):
        packets = [
            Packet([Instruction(Opcode.NOP), Instruction(Opcode.JUMP)]),
            Packet([Instruction(Opcode.NOP)]),
        ]
        decoded = _roundtrip(packets)
        assert [len(p) for p in decoded] == [2, 1]

    def test_lane_bytes_roundtrip(self):
        packets = [
            Packet([
                Instruction(
                    Opcode.VADD, dests=("v0",), srcs=("v1", "v2"),
                    lane_bytes=4,
                )
            ])
        ]
        (decoded,) = _roundtrip(packets)
        assert decoded[0].lane_bytes == 4


class TestErrors:
    def test_empty_packet_rejected(self):
        with pytest.raises(IsaError):
            encode_program([Packet([])])

    def test_too_many_operands_rejected(self):
        inst = Instruction(
            Opcode.VADD,
            dests=("a", "b", "c", "d"),
            srcs=("e", "f", "g"),
        )
        with pytest.raises(IsaError):
            encode_instruction(inst, {}, more_in_packet=False)

    def test_unencodable_lane_width_rejected(self):
        inst = Instruction(
            Opcode.VADD, dests=("a",), srcs=("b", "c"), lane_bytes=3
        )
        with pytest.raises(IsaError):
            encode_instruction(inst, {}, more_in_packet=False)

    def test_truncated_blob_rejected(self):
        packets = [Packet([Instruction(Opcode.NOP)])]
        blob, names = encode_program(packets)
        # Flip the parse bit so the packet never terminates.
        corrupted = bytes([blob[0] | 1]) + blob[1:]
        with pytest.raises(IsaError):
            decode_program(corrupted, names)
