"""Unit tests for the instruction definitions."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.errors import IsaError
from repro.isa.instructions import (
    Instruction,
    Opcode,
    ResourceClass,
    SPEC_TABLE,
    VECTOR_BYTES,
    VECTOR_LANES,
    spec_for,
    vector_instruction,
)


class TestSpecTable:
    def test_every_opcode_has_a_spec(self):
        for opcode in Opcode:
            assert opcode in SPEC_TABLE
            assert spec_for(opcode).opcode is opcode

    def test_vector_width_is_1024_bits(self):
        assert VECTOR_BYTES == 128
        assert VECTOR_LANES == 128

    def test_multiplies_occupy_the_vmult_resource(self):
        for opcode in (Opcode.VMPY, Opcode.VMPA, Opcode.VRMPY,
                       Opcode.VTMPY, Opcode.VMPYE):
            assert spec_for(opcode).resource is ResourceClass.VMULT

    def test_multiplies_have_mac_throughput(self):
        assert spec_for(Opcode.VMPY).macs == 128
        assert spec_for(Opcode.VMPA).macs == 256
        assert spec_for(Opcode.VRMPY).macs == 128

    def test_non_multiplies_have_no_macs(self):
        assert spec_for(Opcode.VADD).macs == 0
        assert spec_for(Opcode.VLOAD).macs == 0

    def test_three_stage_pipeline_latencies(self):
        # Footnote 4: vector instructions pass the full 3-stage pipeline.
        for opcode in (Opcode.VMPY, Opcode.VADD, Opcode.VLOAD,
                       Opcode.VSHUFF, Opcode.VASR):
            assert spec_for(opcode).latency == 3

    def test_stores_skip_write_back(self):
        assert spec_for(Opcode.VSTORE).latency < spec_for(Opcode.VLOAD).latency

    def test_load_store_flags(self):
        assert spec_for(Opcode.VLOAD).is_load
        assert spec_for(Opcode.VSTORE).is_store
        assert spec_for(Opcode.LOAD).is_load
        assert spec_for(Opcode.STORE).is_store
        assert not spec_for(Opcode.VADD).is_load
        assert not spec_for(Opcode.VADD).is_store

    def test_shift_has_dedicated_resource(self):
        assert spec_for(Opcode.VASR).resource is ResourceClass.VSHIFT

    def test_permute_has_dedicated_resource(self):
        assert spec_for(Opcode.VSHUFF).resource is ResourceClass.VPERMUTE


class TestInstruction:
    def test_unique_uids(self):
        a = Instruction(Opcode.VADD, dests=("v0",), srcs=("v1", "v2"))
        b = Instruction(Opcode.VADD, dests=("v0",), srcs=("v1", "v2"))
        assert a.uid != b.uid

    def test_identity_hashing(self):
        a = Instruction(Opcode.NOP)
        b = Instruction(Opcode.NOP)
        assert len({a, b}) == 2
        assert a in {a}

    def test_reads_and_writes(self):
        inst = Instruction(Opcode.VADD, dests=("v0",), srcs=("v1", "v2"))
        assert inst.writes("v0")
        assert inst.reads("v1") and inst.reads("v2")
        assert not inst.reads("v0")
        assert not inst.writes("v1")

    def test_operand_tuples_normalized(self):
        inst = Instruction(Opcode.VADD, dests=["v0"], srcs=["v1"])
        assert inst.dests == ("v0",)
        assert inst.srcs == ("v1",)

    def test_latency_and_resource_shortcuts(self):
        inst = Instruction(Opcode.VMPY, dests=("v0", "v1"), srcs=("v2",))
        assert inst.latency == 3
        assert inst.resource is ResourceClass.VMULT

    def test_default_lane_bytes(self):
        assert Instruction(Opcode.VADD).lane_bytes == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dests", ("v9",)),
            ("srcs", ("v9",)),
            ("imms", (7,)),
            ("opcode", Opcode.VSUB),
            ("lane_bytes", 2),
        ],
    )
    def test_operands_are_immutable(self, field, value):
        # The operand views (spec, read_registers, read/write sets) are
        # derived once; nothing may change what they were derived from.
        inst = Instruction(Opcode.VADD, dests=("v0",), srcs=("v1", "v2"))
        with pytest.raises(FrozenInstanceError):
            setattr(inst, field, value)

    def test_operand_views_are_not_fields(self):
        # Derived views live beside the fields, never among them: the
        # schedule cache serializes an instruction field by field.
        inst = Instruction(
            Opcode.VRMPY, dests=("v0",), srcs=("v1",), imms=(1, 2, 3, 4)
        )
        assert inst.read_registers == ("v1", "v0")  # implicit accumulator
        assert inst.read_set == {"v0", "v1"} and inst.write_set == {"v0"}
        assert inst.spec is spec_for(Opcode.VRMPY)
        assert [f.name for f in fields(inst)] == [
            "opcode", "dests", "srcs", "imms", "comment", "lane_bytes",
            "uid",
        ]
        clone = replace(inst, comment="copy")
        assert clone.read_registers == ("v1", "v0")
        assert clone.uid == inst.uid and clone is not inst


class TestVectorInstruction:
    def test_vector_side(self):
        assert vector_instruction(Opcode.VMPY)
        assert vector_instruction(Opcode.VLOAD)
        assert vector_instruction(Opcode.VSHUFF)

    def test_scalar_side(self):
        assert not vector_instruction(Opcode.ADD)
        assert not vector_instruction(Opcode.LOAD)
        assert not vector_instruction(Opcode.JUMP)


class TestImplicitOperands:
    """Accumulate-in-place forms read their destination (regression:
    ``reads``/``read_registers`` used to report explicit srcs only)."""

    def test_accumulate_dest_is_read_and_written(self):
        # vrmpy acc, vin — accumulates into acc even when the emitter
        # does not list acc among the explicit sources.
        inst = Instruction(Opcode.VRMPY, dests=("v_acc",), srcs=("v_in",))
        assert inst.writes("v_acc")
        assert inst.reads("v_acc")
        assert "v_acc" in inst.read_registers

    def test_explicit_accumulator_not_duplicated(self):
        # The compiler's emitters list acc explicitly; the implicit
        # operand must not appear twice.
        inst = Instruction(
            Opcode.VRMPY, dests=("v_acc",), srcs=("v_in", "v_acc")
        )
        assert inst.read_registers == ("v_in", "v_acc")

    def test_vtmpy_accumulates_too(self):
        inst = Instruction(Opcode.VTMPY, dests=("v_acc",), srcs=("v_in",))
        assert inst.reads("v_acc")

    def test_non_accumulating_ops_do_not_read_dest(self):
        for opcode in (Opcode.VMPY, Opcode.VADD, Opcode.VLOAD):
            inst = Instruction(opcode, dests=("v0",), srcs=("v1",))
            assert not inst.reads("v0")
            assert inst.read_registers == ("v1",)

    def test_written_registers_matches_dests(self):
        inst = Instruction(Opcode.VSHUFF, dests=("v0", "v1"), srcs=("v2",))
        assert inst.written_registers == ("v0", "v1")
