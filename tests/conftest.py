"""Shared fixtures and graph generators for the test suite."""

from __future__ import annotations

import random
from typing import List

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputationalGraph
from repro.isa.instructions import Instruction, Opcode


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def broken_emitter():
    """Every ``emit_executor`` call raises ``RuntimeError("chaos-emit")``.

    Yields a callable that repairs the emitter early; teardown repairs
    it regardless.
    """
    from repro.codegen import set_emit_fault_hook

    def boom(compiled):
        raise RuntimeError("chaos-emit")

    previous = set_emit_fault_hook(boom)

    def repair():
        set_emit_fault_hook(previous)

    yield repair
    repair()


def assert_outputs_equal(got, want) -> None:
    """Two ``run_batch``-style results agree bit for bit."""
    assert len(got) == len(want)
    for sample_got, sample_want in zip(got, want):
        assert set(sample_got) == set(sample_want)
        for key in sample_want:
            assert np.array_equal(sample_got[key], sample_want[key]), key


def schedule_errors(packets, body, machine=None):
    """Lint ERROR diagnostics of ``packets`` as a schedule of ``body``.

    These are the rules the compiler's packing check enforces: packet
    hazards (PK001–PK005) and schedule consistency (SC001, SC002,
    SC004, SC005).
    """
    from repro.lint import StaticAnalyzer

    return StaticAnalyzer(machine).lint_schedule(
        packets, body, with_stalls=False
    ).errors


def assert_schedule_legal(packets, body, machine=None) -> None:
    """``packets`` is a legal schedule of ``body`` on ``machine``."""
    errors = schedule_errors(packets, body, machine)
    assert errors == [], [d.render() for d in errors]


def kernel_reference(engine, kernel_mac_limit=None):
    """The engine's model on the *instruction-kernel* reference route.

    The serving stack emits the exact BLAS product and nothing else;
    handing this to ``verify_engine_parity(engine, feeds, executor=...)``
    gates it against the simulated ``vmpy``/``vmpa``/``vrmpy`` kernels
    (``None``: every GEMM; a positive limit: GEMMs up to that many
    MACs) under the engine's own calibration.
    """
    from repro.runtime import QuantizedExecutor

    return QuantizedExecutor(
        engine.compiled,
        seed=engine.seed,
        kernel_mac_limit=kernel_mac_limit,
        calibration=engine.calibration,
    )


def small_cnn(name: str = "small_cnn", size: int = 16) -> ComputationalGraph:
    """A small but representative CNN: convs, residual, pool, dense."""
    b = GraphBuilder(name)
    x = b.input((1, 3, size, size), name="image")
    x = b.conv2d(x, 8, kernel=3)
    x = b.relu(x)
    y = b.conv2d(x, 8, kernel=3)
    y = b.relu(y)
    x = b.add(x, y)
    x = b.max_pool(x, kernel=2, stride=2)
    x = b.conv2d(x, 16, kernel=1, padding=0)
    x = b.global_avg_pool(x)
    x = b.reshape(x, (1, 16))
    x = b.dense(x, 4)
    b.softmax(x)
    return b.build()


def chain_graph(length: int = 6, size: int = 16) -> ComputationalGraph:
    """A pure linear chain of conv/activation operators."""
    b = GraphBuilder(f"chain_{length}")
    x = b.input((1, 4, size, size), name="input")
    for i in range(length):
        if i % 2 == 0:
            x = b.conv2d(x, 4 + 4 * (i % 3), kernel=3, name=f"conv_{i}")
        else:
            x = b.relu(x, name=f"act_{i}")
    return b.build()


def random_dag(seed: int, nodes: int = 8, size: int = 8) -> ComputationalGraph:
    """A random small DAG mixing compute, elementwise and transforms."""
    rnd = random.Random(seed)
    b = GraphBuilder(f"dag_{seed}")
    handles = [b.input((1, 4, size, size), name="input")]
    for i in range(nodes):
        source = rnd.choice(handles[-3:])
        kind = rnd.random()
        if kind < 0.45:
            handle = b.conv2d(
                source, 4, kernel=rnd.choice([1, 3]), name=f"conv_{i}"
            )
        elif kind < 0.65:
            other = rnd.choice(handles)
            if b.shape_of(other) == b.shape_of(source):
                handle = b.add(source, other, name=f"add_{i}")
            else:
                handle = b.relu(source, name=f"relu_{i}")
        elif kind < 0.85:
            handle = b.relu(source, name=f"act_{i}")
        else:
            shape = b.shape_of(source)
            handle = b.reshape(source, shape, name=f"reshape_{i}")
        handles.append(handle)
    return b.build()


def stream_program(operands: int = 3) -> List[Instruction]:
    """A Figure-5-style streaming program (loads, adds, widen, stores)."""
    program = [
        Instruction(
            Opcode.VLOAD, dests=(f"v{i}",), srcs=(f"r_in{i}",)
        )
        for i in range(operands)
    ]
    result = "v0"
    for i in range(1, operands):
        dest = f"v_sum{i}"
        program.append(
            Instruction(Opcode.VADD, dests=(dest,), srcs=(result, f"v{i}"))
        )
        result = dest
    program.append(
        Instruction(
            Opcode.VSHUFF, dests=("v_lo", "v_hi"), srcs=(result, result)
        )
    )
    program.append(Instruction(Opcode.VSTORE, srcs=("v_lo", "r_out")))
    program.append(Instruction(Opcode.VSTORE, srcs=("v_hi", "r_out2")))
    return program
