"""A node's bits are a function of its inputs' values, never their strides.

numpy sums a contiguous axis pairwise and a strided one sequentially,
and BLAS picks its kernel by operand orientation — so a reduction fed a
transposed view can differ in the last ulp from the same reduction fed
a contiguous copy.  The interpreter's quantized conv returns a
transposed view and the emitted conv a contiguous array; parity between
them therefore needs every order-sensitive operator to canonicalise its
operands (``ReferenceExecutor._apply`` and the mirrored emitted
templates).  This module pins that contract.
"""

import numpy as np
import pytest

from repro.codegen import emit
from repro.compiler import compile_model
from repro.graph import ops
from repro.graph.builder import GraphBuilder
from repro.graph.execute import ReferenceExecutor
from repro.harness import example_feeds
from repro.runtime import InferenceEngine, QuantizedExecutor
from repro.verify.runtime import verify_engine_parity


# The interpreter hands `global_avg_pool` a transposed view of the
# conv's NHWC product, the emitted code a contiguous NCHW array.  At
# the first four sizes the pre-fix trees disagreed in the last ulp.
@pytest.mark.parametrize(
    "channels,height,width",
    [
        (8, 80, 80), (24, 64, 64), (19, 57, 57), (16, 112, 112),
        (8, 16, 16), (8, 40, 40),
    ],
)
def test_reduction_after_conv_matches_the_interpreter(
    channels, height, width
):
    b = GraphBuilder("conv_gap_softmax")
    x = b.input((1, channels, height, width), name="image")
    x = b.conv2d(x, 16, kernel=1, padding=0)
    x = b.global_avg_pool(x)
    x = b.reshape(x, (1, 16))
    b.softmax(x)
    compiled = compile_model(b.build())
    engine = InferenceEngine(compiled, seed=0)
    engine.calibrate(example_feeds(compiled.graph, count=2, seed=99))
    verify_engine_parity(
        engine, example_feeds(compiled.graph, count=3, seed=7)
    )


def test_reference_reduction_ignores_strides(rng):
    # The root cause in one line: same values, different strides.
    x = rng.normal(size=(1, 28, 28, 72)).transpose(0, 3, 1, 2)
    assert not x.flags.c_contiguous
    raw_view = x.mean(axis=(2, 3))
    raw_copy = np.ascontiguousarray(x).mean(axis=(2, 3))
    assert raw_view.tobytes() != raw_copy.tobytes()
    b = GraphBuilder("gap")
    b.global_avg_pool(b.input(x.shape, name="x"), name="gap")
    reference = ReferenceExecutor(b.build())
    on_view = reference.run({"x": x})["gap"]
    on_copy = reference.run({"x": np.ascontiguousarray(x)})["gap"]
    assert on_view.tobytes() == on_copy.tobytes()


class _FloatOnlyEmitter(emit._Emitter):
    """Routes every operator through its float template, so each
    branch of ``_float_stacked_expr`` (and the per-sample fallback to
    ``ReferenceExecutor._eval``) is reachable from a one-op graph."""

    def _emit_node(self, node) -> None:
        if isinstance(node.op, (ops.Input, ops.Constant)):
            super()._emit_node(node)
        else:
            self._emit_float(node, feedful=True)


def _float_fn(graph):
    compiled = compile_model(graph)
    executor = QuantizedExecutor(compiled, seed=0, kernel_mac_limit=0)
    calibration = executor.calibrate(
        example_feeds(compiled.graph, count=1, seed=99)
    )
    source, namespace = _FloatOnlyEmitter(
        compiled, calibration, executor
    ).emit()
    exec(compile(source, "<float-only>", "exec"), namespace)
    return compiled.graph, namespace["run_batch"], source


#: name -> (stored input shapes, builder).  Each input is stored with
#: its axes reversed-rotated (channels last) and reaches the operator
#: through a Transpose node — a strided view in both executors.
_NCHW = (1, 6, 9, 11)
_SEQ = (1, 7, 12)
_MAT = (1, 33, 100)

TEMPLATES = {
    "conv2d": ([_NCHW], lambda b, x: b.conv2d(x, 4, kernel=3, name="op")),
    "conv2d_grouped": (
        [_NCHW], lambda b, x: b.conv2d(x, 6, kernel=3, groups=3, name="op")
    ),
    "depthwise": (
        [_NCHW], lambda b, x: b.depthwise_conv2d(x, kernel=3, name="op")
    ),
    "transpose_conv": (
        [_NCHW], lambda b, x: b.transpose_conv2d(x, 4, name="op")
    ),
    # (33, 100) @ (100, 17) is a shape at which BLAS's choice of kernel
    # by operand orientation shows in the last ulp.
    "matmul_weight": (
        [_MAT], lambda b, x: b.matmul(x, weight_shape=(100, 17), name="op")
    ),
    "matmul_weight_transposed": (
        [_MAT],
        lambda b, x: b.matmul(
            x, weight_shape=(17, 100), transpose_b=True, name="op"
        ),
    ),
    "matmul_operands": (
        [_MAT, (1, 100, 17)], lambda b, x, y: b.matmul(x, y, name="op")
    ),
    "matmul_operands_transposed": (
        [_MAT, (1, 17, 100)],
        lambda b, x, y: b.matmul(x, y, transpose_b=True, name="op"),
    ),
    "dense": ([_NCHW], lambda b, x: b.dense(x, 5, name="op")),
    "add": ([_NCHW, _NCHW], lambda b, x, y: b.add(x, y, name="op")),
    "add3": (
        [_NCHW, _NCHW, _NCHW],
        lambda b, x, y, z: b.add(x, y, z, name="op"),
    ),
    "sub": ([_NCHW, _NCHW], lambda b, x, y: b.sub(x, y, name="op")),
    "mul": ([_NCHW, _NCHW], lambda b, x, y: b.mul(x, y, name="op")),
    "div": ([_NCHW, _NCHW], lambda b, x, y: b.div(x, y, name="op")),
    "pow": ([_NCHW], lambda b, x: b.pow(x, 1.5, name="op")),
    "relu": ([_NCHW], lambda b, x: b.relu(x, name="op")),
    "relu6": ([_NCHW], lambda b, x: b.relu6(x, name="op")),
    "hardswish": ([_NCHW], lambda b, x: b.hardswish(x, name="op")),
    "sigmoid": ([_NCHW], lambda b, x: b.sigmoid(x, name="op")),
    "tanh": ([_NCHW], lambda b, x: b.tanh(x, name="op")),
    "gelu": ([_SEQ], lambda b, x: b.gelu(x, name="op")),
    "softmax": ([_SEQ], lambda b, x: b.softmax(x, name="op")),
    "softmax_chunked": (
        [(1, 8, 160, 160)], lambda b, x: b.softmax(x, name="op")
    ),
    "layer_norm": ([_SEQ], lambda b, x: b.layer_norm(x, name="op")),
    "instance_norm": (
        [_NCHW], lambda b, x: b.instance_norm(x, name="op")
    ),
    "batch_norm": ([_NCHW], lambda b, x: b.batch_norm(x, name="op")),
    "max_pool": (
        [_NCHW], lambda b, x: b.max_pool(x, kernel=2, stride=2, name="op")
    ),
    "avg_pool": (
        [_NCHW], lambda b, x: b.avg_pool(x, kernel=3, stride=2, name="op")
    ),
    "global_avg_pool": (
        [(1, 24, 28, 28)], lambda b, x: b.global_avg_pool(x, name="op")
    ),
    "reduce_mean": (
        [(1, 40, 300)], lambda b, x: b.reduce_mean(x, axis=-1, name="op")
    ),
    "resize": ([_NCHW], lambda b, x: b.resize(x, 2, name="op")),
    "depth_to_space": (
        [(1, 8, 5, 7)], lambda b, x: b.depth_to_space(x, 2, name="op")
    ),
    "reshape": (
        [_NCHW], lambda b, x: b.reshape(x, (1, 54, 11), name="op")
    ),
    "transpose": (
        [_NCHW], lambda b, x: b.transpose(x, (0, 2, 3, 1), name="op")
    ),
    "concat": (
        [_NCHW, _NCHW], lambda b, x, y: b.concat([x, y], axis=1, name="op")
    ),
    "slice": (
        [_NCHW],
        lambda b, x: b.slice(x, axis=1, begin=1, length=3, name="op"),
    ),
    "pad": ([_NCHW], lambda b, x: b.pad(x, (1, 2), name="op")),
}


#: Templates that fall back to ``ReferenceExecutor._eval`` per sample.
PER_SAMPLE = {
    "transpose_conv", "batch_norm", "relu", "dense", "matmul_weight",
    "matmul_weight_transposed", "matmul_operands",
    "matmul_operands_transposed",
}


def _channels_last(shape):
    return (shape[0],) + tuple(shape[2:]) + (shape[1],)


def _channels_first_perm(rank):
    return (0, rank - 1) + tuple(range(1, rank - 1))


def _graphs(shapes, build):
    """The operator fed strided views (inputs stored channels-last,
    brought back by Transpose nodes) and fed contiguous inputs."""
    strided = GraphBuilder("strided")
    views = [
        strided.transpose(
            strided.input(_channels_last(shape), name=f"in{i}"),
            _channels_first_perm(len(shape)),
            name=f"view{i}",
        )
        for i, shape in enumerate(shapes)
    ]
    build(strided, *views)
    contiguous = GraphBuilder("contiguous")
    build(
        contiguous,
        *[
            contiguous.input(shape, name=f"in{i}")
            for i, shape in enumerate(shapes)
        ],
    )
    return strided.build(), contiguous.build()


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_float_templates_ignore_operand_strides(template, rng):
    shapes, build = TEMPLATES[template]
    strided, contiguous = _graphs(shapes, build)
    strided, strided_fn, source = _float_fn(strided)
    contiguous, contiguous_fn, _ = _float_fn(contiguous)
    # These have no stacked template: they run the reference's own
    # `_eval` per sample, which the same contract covers.  (A float
    # Dense / MatMul stacked into one BLAS call is a gemm where the
    # reference does a gemv per sample — different bits at batch >= 2.)
    assert ("_ref_eval(" in source) == (template in PER_SAMPLE)
    reference_view = ReferenceExecutor(strided)
    reference_copy = ReferenceExecutor(contiguous)
    for batch in (1, 2):
        stored = [
            {
                f"in{i}": rng.normal(size=_channels_last(shape))
                for i, shape in enumerate(shapes)
            }
            for _ in range(batch)
        ]
        copies = [
            {
                name: np.ascontiguousarray(
                    value.transpose(_channels_first_perm(value.ndim))
                )
                for name, value in sample.items()
            }
            for sample in stored
        ]
        emitted_view, _ = strided_fn(stored)
        emitted_copy, _ = contiguous_fn(copies)
        for s in range(batch):
            want = reference_copy.run(copies[s])["op"]
            assert _bytes(reference_view.run(stored[s])["op"]) == _bytes(
                want
            ), f"{template}: the reference's bits depend on strides"
            assert _bytes(emitted_view[s]["op"]) == _bytes(
                emitted_copy[s]["op"]
            ), f"{template}: the emitted bits depend on strides"
            # And the template returns the per-sample reference's bits
            # outright, at every batch.
            assert _bytes(emitted_view[s]["op"]) == _bytes(want)


def _bytes(value) -> bytes:
    return np.ascontiguousarray(value).tobytes()
