"""Span arithmetic, the recorder, and the wrap table."""

import threading

import pytest

from e2e import trace
from e2e.trace import Span


def span(name, start, end, parent=None, op=0):
    return Span(name, start, end, parent, op)


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 7.0, parent=0),
        span("grandchild", 2.0, 5.0, parent=1),
    ]
    assert trace.self_times(spans) == pytest.approx([4.0, 3.0, 3.0])
    # Self times of one op add up to its wall.
    assert sum(trace.self_times(spans)) == pytest.approx(10.0)


def test_self_time_with_overlapping_and_overhanging_children():
    spans = [
        span("root", 0.0, 10.0),
        # Two children on different threads overlap on [3, 5] ...
        span("a", 1.0, 5.0, parent=0),
        span("b", 3.0, 8.0, parent=0),
        # ... and one outlasts the parent: only [9, 10] counts.
        span("c", 9.0, 12.0, parent=0),
    ]
    # Covered: [1, 8] and [9, 10] = 8 of 10.
    assert trace.self_times(spans)[0] == pytest.approx(2.0)


def test_covered_ignores_intervals_outside_the_parent():
    assert trace.covered([(-5.0, -1.0), (20.0, 30.0)], 0.0, 10.0) == 0.0
    assert trace.covered([(-5.0, 2.0), (1.0, 3.0)], 0.0, 10.0) == 3.0


def test_self_ms_by_op_groups_by_root():
    spans = [
        span("op", 0.0, 1.0, op=0),
        span("layer", 0.25, 0.75, parent=0, op=0),
        span("op", 2.0, 3.0, op=2),
    ]
    by_op = trace.self_ms_by_op(spans)
    assert by_op[0] == pytest.approx({"op": 500.0, "layer": 500.0})
    assert by_op[2] == pytest.approx({"op": 1000.0})


def test_recorder_nests_formats_names_and_records_values():
    tracer = trace.Tracer()
    inner = tracer.wrap(lambda x: [x] * 3, "inner", lambda a, r: len(r))
    outer = tracer.wrap(lambda stage, x: inner(x), "stage.{0}")
    with tracer.op("op") as root:
        assert outer("packing", 7) == [7, 7, 7]
    names = [s.name for s in tracer.spans]
    assert names == ["op", "stage.packing", "inner"]
    op_span, stage, leaf = tracer.spans
    assert (stage.parent, leaf.parent) == (root, 1)
    assert {s.op for s in tracer.spans} == {root}
    assert leaf.value == 3
    assert op_span.start <= stage.start <= leaf.start
    assert leaf.end <= stage.end <= op_span.end


def test_recorder_closes_the_span_when_the_call_raises():
    tracer = trace.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0].end >= tracer.spans[0].start > 0.0
    # The stack unwound: the next span is a root again.
    tracer.wrap(lambda: None, "next")()
    assert tracer.spans[1].parent is None


def test_other_threads_adopt_the_open_op():
    tracer = trace.Tracer()
    work = tracer.wrap(lambda: None, "handler")
    with tracer.op("request") as root:
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    handler = tracer.spans[1]
    assert (handler.parent, handler.op) == (root, root)
    # No op open: a stray span belongs to none.
    work()
    assert tracer.spans[2].op is None


def test_disabled_tracer_records_nothing():
    tracer = trace.Tracer()
    wrapped = tracer.wrap(lambda: 5, "quiet")
    tracer.enabled = False
    assert wrapped() == 5
    assert tracer.spans == []


def all_wraps():
    for table in (trace.COMPILE_LAYERS, trace.SERVE_LAYERS):
        for layer, wraps in table.items():
            for wrap in wraps:
                yield pytest.param(wrap, id=f"{layer}:{wrap.span}")


@pytest.mark.parametrize("wrap", all_wraps())
def test_every_wrap_target_resolves(wrap):
    """A rename in the program must fail here, not drop a layer."""
    owner, attr, _ = trace.resolve(wrap.target)
    assert callable(getattr(owner, attr))


def test_resolve_fails_loudly_on_a_missing_name():
    with pytest.raises(AttributeError):
        trace.resolve("repro.compiler:no_such_function")
    with pytest.raises(ImportError):
        trace.resolve("repro.no_such_module:f")
    with pytest.raises(TypeError):
        trace.resolve("repro.compiler:VECTOR_CONTEXTS")


def test_installed_patches_and_restores():
    import repro.compiler
    from repro.cache.store import ScheduleCache

    before = (repro.compiler.lower_node, ScheduleCache.lookup)
    tracer = trace.Tracer()
    with trace.installed(tracer, trace.COMPILE_LAYERS):
        assert repro.compiler.lower_node is not before[0]
        cache = ScheduleCache()
        assert cache.lookup("nope") == (None, "miss")
    assert (repro.compiler.lower_node, ScheduleCache.lookup) == before
    assert [(s.name, s.value) for s in tracer.spans] == [
        ("cache.lookup", "miss")
    ]


def test_factory_wraps_record_the_product_not_the_factory():
    import repro.compiler
    from repro.isa.instructions import Instruction, Opcode

    tracer = trace.Tracer()
    with trace.installed(tracer, trace.COMPILE_LAYERS):
        packer = repro.compiler.configured_packer("sda", None, None)
        assert tracer.spans == []
        packets = packer(
            [Instruction(Opcode.VADD, dests=("v0",), srcs=("v1", "v2"))]
        )
    assert [(s.name, s.value) for s in tracer.spans] == [
        ("core.packing", len(packets))
    ]
