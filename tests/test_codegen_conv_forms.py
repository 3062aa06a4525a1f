"""The emitted executor's convolution forms.

Every quantized ``Conv2D`` is emitted channel-major —
``Wt (OC, K) @ P (K, OH*OW)`` per sample, written straight into the
NCHW output — and every ``DepthwiseConv2D`` gathers its windows through
an index built once at emission.  This module pins what that form must
keep: the interpreter's bits on every geometry, nothing mutable shared
between concurrent calls, and no layout transform left in the source.
"""

import re
import threading

import numpy as np
import pytest

from repro.codegen import emit
from repro.codegen.profile import _MARKER, instrument, profile_emitted
from repro.compiler import compile_model
from repro.graph import ops
from repro.graph.builder import GraphBuilder
from repro.graph.execute import _ACTIVATIONS, ReferenceExecutor
from repro.harness import compile_cached, example_feeds
from repro.quant.quantize import QuantParams
from repro.runtime import InferenceEngine
from repro.verify.runtime import verify_engine_parity
from tests.conftest import assert_outputs_equal, kernel_reference

ACTIVATIONS = ("relu", "relu6", "hardswish", "sigmoid", "tanh")

#: The pre-channel-major emitter switched conv forms at this many output
#: elements per sample; the matrix keeps cases on both sides of it.
OLD_FORM_LINE = 50_000


def _engine(graph):
    compiled = compile_model(graph)
    engine = InferenceEngine(compiled, seed=0)
    engine.calibrate(example_feeds(compiled.graph, count=2, seed=99))
    return engine


def _depthwise(b, x, *, kernel, stride, padding, multiplier, name):
    op = ops.DepthwiseConv2D(
        kernel=kernel, stride=stride, padding=padding, multiplier=multiplier
    )
    return b._add(op, (x,), name)


def _geometry_graph(height, width, *, big):
    """Every conv geometry of the matrix as one branch off one
    non-square input; each branch is a graph output, so a parity
    failure names the geometry."""
    b = GraphBuilder(f"conv_geometries_{height}x{width}")
    x = b.input((1, 3, height, width), name="image")
    for kernel in (1, 3, 5, 7):
        for stride in (1, 2):
            for padding in sorted({0, kernel // 2}):
                oh = (height + 2 * padding - kernel) // stride + 1
                ow = (width + 2 * padding - kernel) // stride + 1
                channels = OLD_FORM_LINE // (oh * ow) + 1 if big else 5
                b.conv2d(
                    x, channels, kernel=kernel, stride=stride,
                    padding=padding,
                    name=f"conv_k{kernel}_s{stride}_p{padding}",
                )
    for multiplier in (1, 2):
        for stride in (1, 2):
            _depthwise(
                b, x, kernel=3, stride=stride, padding=1,
                multiplier=multiplier, name=f"dw_m{multiplier}_s{stride}",
            )
    _depthwise(
        b, x, kernel=5, stride=2, padding=0, multiplier=2, name="dw_k5_p0"
    )
    return b.build()


def _activation_graph():
    """Each fused activation on a 1x1 conv, a kxk conv and a depthwise
    conv (the fusion pass folds the activation into its producer)."""
    b = GraphBuilder("conv_activations")
    x = b.input((1, 4, 13, 17), name="image")
    for act in ACTIVATIONS:
        apply = getattr(b, act)
        apply(b.conv2d(x, 6, kernel=1, padding=0, name=f"c1_{act}"))
        apply(b.conv2d(x, 6, kernel=3, stride=2, name=f"c3_{act}"))
        apply(
            _depthwise(
                b, x, kernel=3, stride=1, padding=1, multiplier=2,
                name=f"dw_{act}",
            )
        )
    return b.build()


class TestGeometryParity:
    """verify_engine_parity: the emitted bits are the interpreter's."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize(
        "height,width,big",
        [(19, 26, False), (70, 93, True)],
        ids=["below-old-line", "above-old-line"],
    )
    def test_conv_geometry_matrix(self, height, width, big, batch):
        engine = _engine(_geometry_graph(height, width, big=big))
        graph = engine.compiled.graph
        convs = [n for n in graph if isinstance(n.op, ops.Conv2D)]
        assert len(convs) == 14
        assert engine.emitted().source.count("np.matmul(") == len(convs)
        if big:
            assert all(
                np.prod(node.output_shape) >= OLD_FORM_LINE
                for node in convs
            )
        report = verify_engine_parity(
            engine, example_feeds(graph, count=batch, seed=7)
        )
        assert report["outputs"] == batch * len(graph.output_nodes())

    @pytest.mark.parametrize("batch", [1, 3])
    def test_every_fused_activation(self, batch):
        engine = _engine(_activation_graph())
        graph = engine.compiled.graph
        fused = {
            node.op.fused_activation
            for node in graph
            if node.op.is_compute_heavy
        }
        assert fused == set(ACTIVATIONS)
        verify_engine_parity(
            engine, example_feeds(graph, count=batch, seed=7)
        )

    @pytest.mark.parametrize("batch", [1, 3])
    def test_levels_saturate_past_the_calibration_bound(self, batch):
        # Inputs four times the calibrated range clip at -128 / 127:
        # the one place a level's magnitude exceeds a weight's.
        engine = _engine(_geometry_graph(19, 26, big=False))
        graph = engine.compiled.graph
        feeds = [
            {name: 4.0 * value for name, value in sample.items()}
            for sample in example_feeds(graph, count=batch, seed=7)
        ]
        bound = engine.calibration.bound(
            next(iter(graph)).node_id
        )
        assert min(f["image"].min() for f in feeds) < -bound
        verify_engine_parity(engine, feeds)

    def test_instruction_kernel_routes_keep_parity(self):
        # The reference on its instruction-kernel routes (`None` always
        # runs them, a positive limit decides per GEMM) feeds the
        # kernels a row-major im2col operand; the emitted channel-major
        # product must be the same integers, transposed.
        b = GraphBuilder("kernel_routes")
        x = b.input((1, 3, 9, 11), name="image")
        b.relu(b.conv2d(x, 4, kernel=3, stride=2, name="c3"))
        b.conv2d(x, 4, kernel=1, padding=0, name="c1")
        engine = _engine(b.build())
        assert "_im2col(" not in engine.emitted().source
        for kernel_mac_limit in (None, 500):
            verify_engine_parity(
                engine,
                example_feeds(engine.compiled.graph, count=2, seed=7),
                executor=kernel_reference(engine, kernel_mac_limit),
            )


class TestHelpers:
    def test_inplace_activations_are_the_reference_bits(self, rng):
        x = np.concatenate(
            [
                rng.normal(scale=4.0, size=500),
                [-6.0, -3.0, -0.0, 0.0, 3.0, 6.0, 1e300, -1e300],
            ]
        ).reshape(4, -1)
        assert set(emit._ACTIVATIONS_INPLACE) == set(_ACTIVATIONS)
        for name, reference in _ACTIVATIONS.items():
            got = x.copy()
            with np.errstate(over="ignore"):
                assert emit._ACTIVATIONS_INPLACE[name](got) is None
                want = reference(x)
            assert got.tobytes() == want.tobytes(), name

    def test_quantize_levels_is_quantize_widened(self, rng):
        params = QuantParams(scale=0.037)
        x = np.concatenate(
            [
                rng.normal(scale=3.0, size=1999),
                # Rounding ties, both zeros, saturation, infinities.
                np.array([0.5, 1.5, -0.5, -2.5]) * 0.037,
                [-0.0, 0.0, -0.01, 1e9, -1e9, np.inf, -np.inf],
            ]
        ).reshape(3, -1)
        got = emit._quantize_levels(params, x)
        want = params.quantize(x).astype(np.float64)
        assert got.tobytes() == want.tobytes()
        assert got.min() == -128 and got.max() == 127

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((3, 9, 11), (3, 3), (1, 1), (1, 1)),
            ((2, 12, 7), (5, 3), (2, 1), (2, 0)),
            ((4, 8, 8), (1, 1), (2, 2), (1, 1)),
            ((1, 15, 10), (7, 7), (2, 2), (3, 3)),
        ],
    )
    def test_gather_plan_matches_reference_im2col(
        self, rng, shape, kernel, stride, padding
    ):
        c, h, w = shape
        x = rng.integers(-128, 128, size=shape).astype(np.float64)
        want = ReferenceExecutor._im2col(x[None], kernel, stride, padding)[0]
        oh, ow, k = want.shape
        hp, wp = h + 2 * padding[0], w + 2 * padding[1]
        # Quantized conv: rows in the weight matrix's (c, i, j) order.
        index = emit._window_index(hp, wp, kernel, stride, False)
        patches = emit._gather_patches(x, index, padding)
        assert patches.shape == (k, oh * ow)
        assert np.array_equal(patches.T, want.reshape(oh * ow, k))
        # Depthwise: the same windows, taps contiguous.
        taps_last = emit._window_index(hp, wp, kernel, stride, True)
        assert np.array_equal(taps_last, index.T)
        for plan in (index, taps_last):
            assert plan.dtype == np.intp
            assert not plan.flags.writeable
            assert 0 <= plan.min() and plan.max() < hp * wp


def _conv_depthwise_graph():
    b = GraphBuilder("reentrant")
    x = b.input((1, 4, 24, 20), name="image")
    x = b.hardswish(b.conv2d(x, 8, kernel=3, stride=2, name="stem"))
    y = b.relu(b.depthwise_conv2d(x, kernel=3, name="dw"))
    y = b.conv2d(y, 8, kernel=1, padding=0, name="project")
    x = b.add(x, y)
    x = b.relu6(b.depthwise_conv2d(x, kernel=5, stride=2, name="dw5"))
    x = b.conv2d(x, 12, kernel=1, padding=0, name="head")
    x = b.global_avg_pool(x)
    b.softmax(b.reshape(x, (1, 12)))
    return b.build()


class TestReentrancy:
    """EnginePool(size=2) admits two threads into one engine."""

    def test_plans_are_read_only(self):
        engine = _engine(_conv_depthwise_graph())
        plans = [
            value
            for name, value in engine.emitted().namespace.items()
            if name.endswith("_idx")
        ]
        # stem 3x3/2, dw 3x3/1, dw5 5x5/2: one plan per geometry.
        assert len(plans) == 3
        for plan in plans:
            assert plan.flags.writeable is False
            with pytest.raises(ValueError):
                plan[0, 0] = 0

    def test_plans_are_shared_per_geometry(self):
        b = GraphBuilder("shared_plans")
        x = b.input((1, 4, 12, 12), name="image")
        for index in range(3):
            x = b.depthwise_conv2d(x, kernel=3, name=f"dw_{index}")
        engine = _engine(b.build())
        source = engine.emitted().source
        names = set(re.findall(r"_k\d+_idx", source))
        assert len(names) == 1
        assert source.count(names.pop()) == 3

    def test_two_threads_return_the_single_threaded_bytes(self):
        engine = _engine(_conv_depthwise_graph())
        graph = engine.compiled.graph
        feeds = {
            0: example_feeds(graph, count=1, seed=21),
            1: example_feeds(graph, count=3, seed=22),
        }
        expected = {
            key: [
                {name: value.copy() for name, value in sample.items()}
                for sample in engine.run_batch(batch)
            ]
            for key, batch in feeds.items()
        }
        failures = []

        def worker(key):
            try:
                for _ in range(50):
                    assert_outputs_equal(
                        engine.run_batch(feeds[key]), expected[key]
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(key,)) for key in feeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_outputs_do_not_alias_scratch(self):
        # A conv / depthwise output handed to the caller must survive
        # the next call untouched.
        b = GraphBuilder("conv_outputs")
        x = b.input((1, 3, 10, 12), name="image")
        b.conv2d(x, 4, kernel=3, name="conv")
        b.depthwise_conv2d(x, kernel=3, name="dw")
        engine = _engine(b.build())
        graph = engine.compiled.graph
        first = engine.run_batch(example_feeds(graph, count=2, seed=7))
        snapshot = [
            {key: value.copy() for key, value in sample.items()}
            for sample in first
        ]
        engine.run_batch(example_feeds(graph, count=2, seed=1234))
        assert_outputs_equal(first, snapshot)


@pytest.fixture(scope="module")
def mobilenet_engine():
    engine = InferenceEngine(compile_cached("mobilenet_v3"), seed=0)
    engine.calibrate(example_feeds(engine.compiled.graph, count=2, seed=99))
    return engine


def _node_blocks(source):
    """{(name, op_type): that node's emitted lines}."""
    blocks, current = {}, None
    for text in source.splitlines():
        match = _MARKER.match(text)
        if match:
            current = blocks.setdefault((match["name"], match["op"]), [])
        elif current is not None:
            current.append(text)
    return blocks


class TestServedSource:
    """Count gates on what `repro serve` runs for mobilenet_v3."""

    def test_no_layout_transform_is_left_in_a_conv(self, mobilenet_engine):
        source = mobilenet_engine.emitted().source
        graph = mobilenet_engine.compiled.graph
        convs = [
            lines
            for (_, op_type), lines in _node_blocks(source).items()
            if op_type == "Conv2D"
        ]
        assert len(convs) == sum(
            isinstance(node.op, ops.Conv2D) for node in graph
        ) == 48
        for lines in convs:
            body = "\n".join(lines)
            assert "_im2col(" not in body
            assert ".transpose(" not in body
            assert body.count("np.matmul(") == 1
        assert "_im2col(" not in source
        # 47 pointwise convs read a reshape of the quantized input;
        # only the 3x3 stem gathers.
        assert source.count("_patches(") == 1

    def test_one_form_no_size_threshold(self):
        # The same statements on both sides of the old 50 000 line.
        shapes = {}
        for size in (16, 96):
            b = GraphBuilder(f"pointwise_{size}")
            x = b.input((1, 8, size, size), name="image")
            b.conv2d(x, 8, kernel=1, padding=0, name="conv")
            source = _engine(b.build()).emitted().source
            (lines,) = [
                lines
                for (_, op_type), lines in _node_blocks(source).items()
                if op_type == "Conv2D"
            ]
            shapes[size] = re.sub(r"\d+", "N", "\n".join(lines))
        assert shapes[16] == shapes[96]

    @pytest.mark.parametrize("batch", [1, 3])
    def test_stacked_gemm_rows_are_unchanged(self, mobilenet_engine, batch):
        # One row per output pixel of every quantized conv, plus one
        # per Dense sample — what the im2col forms counted.
        graph = mobilenet_engine.compiled.graph
        per_sample = sum(
            node.output_shape[2] * node.output_shape[3]
            for node in graph
            if isinstance(node.op, ops.Conv2D)
        ) + sum(isinstance(node.op, ops.Dense) for node in graph)
        assert per_sample == 57_544
        before = mobilenet_engine.diagnostics.stacked_gemm_rows
        mobilenet_engine.run_batch(example_feeds(graph, count=batch, seed=3))
        after = mobilenet_engine.diagnostics.stacked_gemm_rows
        assert after - before == batch * per_sample


class TestProfile:
    """`repro codegen --profile`: the same source, timed per node."""

    def test_instrumented_source_is_the_served_source_plus_stamps(self):
        engine = _engine(_conv_depthwise_graph())
        emitted = engine.emitted()
        timed, nodes = instrument(emitted.source)
        assert [name for name, _ in nodes] == [
            node.name for node in engine.compiled.graph
        ]
        kept = [
            line
            for line in timed.splitlines()
            if "_stamps" not in line or line.startswith("    return ")
        ]
        served = emitted.source.splitlines()
        assert kept[:-1] == served[:-1]
        assert kept[-1] == served[-1] + ", _stamps"

    def test_profile_reports_every_node_and_leaves_fn_alone(self):
        engine = _engine(_conv_depthwise_graph())
        graph = engine.compiled.graph
        emitted = engine.emitted()
        feeds = example_feeds(graph, count=1, seed=5)
        served_fn, served_keys = emitted.fn, set(emitted.namespace)
        before = emitted.fn(list(feeds))[0]
        report = profile_emitted(emitted, feeds, calls=3)
        assert emitted.fn is served_fn
        assert set(emitted.namespace) == served_keys
        assert emitted.namespace["run_batch"] is served_fn
        assert_outputs_equal(emitted.fn(list(feeds))[0], before)
        assert len(report["nodes"]) == len(list(graph))
        assert sum(e["nodes"] for e in report["by_op"].values()) == len(
            report["nodes"]
        )
        assert {"Conv2D", "DepthwiseConv2D"} <= set(report["by_op"])
        assert all(row["ms"] >= 0.0 for row in report["nodes"])
        assert report["timed_ms"] > 0.0 and report["untimed_ms"] > 0.0
