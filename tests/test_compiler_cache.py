"""Compiler-level tests for the schedule cache.

Covers the unsound-key regression (bodies differing only in an
immediate must not share a schedule), hit/miss accounting in
diagnostics, disk round-trips across compiler instances and
schema-hash invalidation.
"""

import numpy as np
import pytest

from repro.cache import fingerprint as fingerprint_mod
from repro.cache import kernel_fingerprint
from repro.codegen.lower import LoweredKernel
from repro.compiler import CompilerOptions, GCD2Compiler
from repro.errors import ReproError
from repro.isa.instructions import Instruction, Opcode
from repro.machine.simulator import Simulator
from tests.conftest import small_cnn


def _shift_kernel(shift: int) -> LoweredKernel:
    """A kernel whose body varies only in the VASR shift immediate."""
    body = [
        Instruction(Opcode.VSPLAT, dests=("v0",), imms=(64,),
                    lane_bytes=4),
        Instruction(Opcode.VASR, dests=("v1",), srcs=("v0",),
                    imms=(shift,)),
    ]
    return LoweredKernel(
        body=body, trips=1, description=f"shift-{shift}"
    )


def _executed_lanes(packets) -> np.ndarray:
    sim = Simulator()
    sim.run(packets)
    return sim.state.registers.read_vector("v1").data.view(np.int32)


class TestCacheKeyRegression:
    def test_imms_do_not_collide(self):
        """Two bodies differing only in an immediate: distinct
        schedules, distinct executed results.

        Under the old ``(opcode, dests, srcs)`` key the second kernel
        silently adopted the first kernel's canonical body, so both
        executed the *first* kernel's shift amount.
        """
        compiler = GCD2Compiler(CompilerOptions())
        _, _, body_a = compiler._pack(_shift_kernel(1))
        packets_b, _, body_b = compiler._pack(_shift_kernel(2))

        assert body_a is not body_b
        assert body_a[1].imms == (1,)
        assert body_b[1].imms == (2,)

        packets_a, _, _ = compiler._pack(_shift_kernel(1))
        lanes_a = _executed_lanes(packets_a)
        lanes_b = _executed_lanes(packets_b)
        # 64 >> 1 (rounded) != 64 >> 2 (rounded): outputs must differ.
        assert not np.array_equal(lanes_a, lanes_b)

    def test_lane_bytes_do_not_collide(self):
        compiler = GCD2Compiler(CompilerOptions())

        def kernel(lane_bytes):
            body = [
                Instruction(Opcode.VSPLAT, dests=("v0",), imms=(7,),
                            lane_bytes=lane_bytes),
                Instruction(Opcode.VADD, dests=("v1",),
                            srcs=("v0", "v0"), lane_bytes=lane_bytes),
            ]
            return LoweredKernel(body=body, trips=1, description="k")

        _, _, body_narrow = compiler._pack(kernel(1))
        _, _, body_wide = compiler._pack(kernel(4))
        assert body_narrow is not body_wide
        assert body_narrow[0].lane_bytes == 1
        assert body_wide[0].lane_bytes == 4

    def test_identical_bodies_still_share(self):
        compiler = GCD2Compiler(CompilerOptions())
        packets_a, _, body_a = compiler._pack(_shift_kernel(3))
        packets_b, _, body_b = compiler._pack(_shift_kernel(3))
        assert packets_a is packets_b
        assert body_a is body_b


class TestDiagnosticsAccounting:
    def test_cold_compile_records_misses_then_hits(self):
        compiled = GCD2Compiler(CompilerOptions()).compile(small_cnn())
        diag = compiled.diagnostics
        assert diag.cache_misses > 0
        assert diag.cache_memory_hits > 0
        assert diag.cache_disk_hits == 0
        assert diag.cache_lookups == \
            diag.cache_hits + diag.cache_misses

    def test_second_compile_all_hits(self):
        compiler = GCD2Compiler(CompilerOptions())
        compiler.compile(small_cnn())
        warm = compiler.compile(small_cnn("again"))
        assert warm.diagnostics.cache_misses == 0
        assert warm.diagnostics.cache_memory_hits > 0

    def test_summary_lines_mention_cache(self):
        compiled = GCD2Compiler(CompilerOptions()).compile(small_cnn())
        lines = "\n".join(compiled.diagnostics.summary_lines())
        assert "schedule cache:" in lines


class TestDiskCache:
    def test_round_trip_across_compiler_instances(self, tmp_path):
        options = CompilerOptions(cache_dir=str(tmp_path))
        graph = small_cnn()
        cold = GCD2Compiler(options).compile(graph)
        warm = GCD2Compiler(options).compile(small_cnn("again"))

        assert cold.diagnostics.cache_disk_hits == 0
        assert warm.diagnostics.cache_misses == 0
        assert warm.diagnostics.cache_disk_hits > 0
        assert warm.total_cycles == cold.total_cycles
        assert warm.total_packets == cold.total_packets

    def test_cached_artefacts_pass_strict_verification(self, tmp_path):
        options = CompilerOptions(
            cache_dir=str(tmp_path), strict=True, verify=True, lint=True
        )
        GCD2Compiler(options).compile(small_cnn())
        # Second compile resolves every schedule from disk; the stage
        # verifiers and the static analyzer must still pass.
        warm = GCD2Compiler(options).compile(small_cnn("again"))
        assert warm.diagnostics.cache_disk_hits > 0

    def test_schema_change_invalidates_disk_entries(
        self, tmp_path, monkeypatch
    ):
        options = CompilerOptions(cache_dir=str(tmp_path))
        GCD2Compiler(options).compile(small_cnn())
        monkeypatch.setattr(
            fingerprint_mod, "CACHE_SCHEMA_VERSION", 999
        )
        stale = GCD2Compiler(options).compile(small_cnn("again"))
        assert stale.diagnostics.cache_disk_hits == 0
        assert stale.diagnostics.cache_misses > 0

    def test_unwritable_cache_dir_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        options = CompilerOptions(cache_dir=str(blocker))
        compiled = GCD2Compiler(options).compile(small_cnn())
        assert compiled.total_packets > 0


class TestParallelCompilation:
    """Process-pool packing is gone; ``jobs`` only accepts ``1``."""

    def test_options_validation(self):
        assert CompilerOptions(jobs=1).jobs == 1
        for jobs in (0, 2):
            with pytest.raises(
                ReproError, match="parallel packing was removed"
            ):
                CompilerOptions(jobs=jobs)
        with pytest.raises(ReproError):
            CompilerOptions(cache_memory_entries=0)


class TestFingerprintMatchesCompilerUsage:
    def test_pack_uses_full_identity(self):
        kernel = _shift_kernel(5)
        compiler = GCD2Compiler(CompilerOptions())
        compiler._pack(kernel)
        fingerprint = kernel_fingerprint(
            kernel.body, compiler.options.packing
        )
        entry, tier = compiler.schedule_cache.lookup(fingerprint)
        assert entry is not None
