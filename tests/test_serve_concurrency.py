"""One engine per model, shared by every request thread.

:class:`~repro.runtime.engine.InferenceEngine` is re-entrant once
calibrated and :class:`~repro.serve.pool.EnginePool` is an admission
gate over one of them.  This suite pins that contract: concurrent
requests return the serial run's bits, a model is emitted once however
many requests race the first call and whatever the pool size, a
mid-batch fault replaces the engine without disturbing the request in
flight beside it, and a saturated gate rejects within its bound.
"""

import sys
import threading
import time

import pytest

import repro.codegen.emit as emit_mod
from repro.compiler import compile_model
from repro.errors import AdmissionError
from repro.harness import compile_cached, example_feeds
from repro.models.transformers import build_decoder_step
from repro.runtime import InferenceEngine
from repro.serve.pool import EnginePool
from repro.verify.budget import Deadline
from tests.conftest import assert_outputs_equal, kernel_reference, small_cnn

JOIN_S = 120.0


def _pool(compiled, **kwargs):
    return EnginePool(
        compiled,
        calibration_feeds=example_feeds(compiled.graph, count=2, seed=99),
        **kwargs,
    )


def _run_threads(targets):
    """Run one thread per target under a short switch interval; every
    thread must finish, and the first exception any raised is re-raised."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(target,), daemon=True)
        for target in targets
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


@pytest.fixture
def emit_calls(monkeypatch):
    """Count ``emit_executor`` calls; each dawdles so racing callers
    overlap the emission."""
    calls = []
    original = emit_mod.emit_executor

    def counting(*args, **kwargs):
        calls.append(threading.current_thread().name)
        time.sleep(0.05)
        return original(*args, **kwargs)

    monkeypatch.setattr(emit_mod, "emit_executor", counting)
    return calls


def _tiny_decoder_step():
    return compile_model(
        build_decoder_step(
            cache_len=8, hidden=16, heads=2, blocks=1, ffn=32, vocab=32
        )
    )


# decoder_tiny carries per-sample ``_qcompute`` nodes (calls into the
# shared reference executor from inside the emitted code).  The second
# field is the route of the *independent reference* the serial run is
# held to: under ``kernel_mac_limit=None`` decoder_tiny costs ~6 s a
# sample in the Python-loop GEMM kernels, so there a geometry-shrunk
# decode step with the same node kinds stands in for it.
PARITY_CASES = {
    "decoder_tiny-0": (lambda: compile_cached("decoder_tiny"), 0),
    "decoder_step-None": (_tiny_decoder_step, None),
    "small_cnn-0": (lambda: compile_model(small_cnn()), 0),
    "small_cnn-None": (lambda: compile_model(small_cnn()), None),
}


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_concurrent_requests_match_the_serial_run(case):
    build, kernel_mac_limit = PARITY_CASES[case]
    compiled = build()
    pool = _pool(compiled, size=4)
    batches = [
        example_feeds(compiled.graph, count=1 + 2 * (index % 2), seed=index)
        for index in range(8)
    ]
    serial = [pool.infer(feeds)["outputs"] for feeds in batches]
    # The serial run itself is held to the independent reference on
    # the case's route (one 1-sample and one 3-sample batch: the
    # instruction kernels are Python loops).
    reference = kernel_reference(pool.engine, kernel_mac_limit)
    for feeds, outputs in zip(batches[:2], serial):
        assert_outputs_equal(outputs, [reference.run(f) for f in feeds])
    results = {}

    def worker(offset):
        def run():
            # Each thread walks the batches from a different start, so
            # different batches overlap on the one engine.
            for step in range(len(batches)):
                index = (offset + step) % len(batches)
                response = pool.infer(batches[index])
                assert response["mode"] == "batched"
                assert response["degradations"] == []
                results[offset, index] = response["outputs"]

        return run

    _run_threads([worker(2 * thread) for thread in range(4)])
    assert len(results) == 4 * len(batches)
    for (_, index), outputs in results.items():
        assert_outputs_equal(outputs, serial[index])
    assert pool.rebuilds == 0
    assert pool.engine.diagnostics.batches == 5 * len(batches)


class TestEmitOnce:
    def test_racing_first_requests_emit_once(self, emit_calls):
        compiled = compile_model(small_cnn())
        feeds = example_feeds(compiled.graph, count=2, seed=7)
        calibrated = _pool(compiled, size=1)
        expected = calibrated.infer(feeds)["outputs"]
        del emit_calls[:]
        engine = InferenceEngine(compiled, calibrated.calibration, seed=0)
        barrier = threading.Barrier(6)
        outputs = []

        def first_request():
            barrier.wait(JOIN_S)
            outputs.append(engine.run_batch(feeds))

        _run_threads([first_request] * 6)
        assert len(emit_calls) == 1
        assert len(outputs) == 6
        for got in outputs:
            assert_outputs_equal(got, expected)
        assert engine.diagnostics.codegen_batches == 6

    def test_a_pool_lifetime_emits_once_whatever_its_size(self, emit_calls):
        compiled = compile_model(small_cnn())
        feeds = example_feeds(compiled.graph, count=2, seed=7)
        pool = _pool(compiled, size=3)
        assert emit_calls == ["MainThread"]  # at startup, not in a request
        _run_threads([lambda: pool.infer(feeds)] * 6)
        assert len(emit_calls) == 1
        assert pool.engine.diagnostics.codegen_batches == 6


def test_mid_batch_fault_beside_a_request_in_flight(emit_calls):
    compiled = compile_model(small_cnn())
    feeds = example_feeds(compiled.graph, count=3, seed=7)
    pool = _pool(compiled, size=2)
    healthy = pool.infer(feeds)["outputs"]
    old = pool.engine
    in_flight = threading.Event()
    faulted_done = threading.Event()
    responses = {}

    def slow_request():
        responses["in-flight"] = pool.infer(feeds)

    slow = threading.Thread(target=slow_request, daemon=True)

    def hook(node):
        # The slow request parks inside the old engine; any other
        # request on that engine dies mid-batch.
        if threading.current_thread() is not slow:
            raise RuntimeError("chaos-batch")
        in_flight.set()
        assert faulted_done.wait(JOIN_S)

    old.batch_fault_hook = hook
    slow.start()
    assert in_flight.wait(JOIN_S)
    faulted = pool.infer(feeds)
    # The replacement emitted before it was published ...
    assert pool.rebuilds == 1
    assert pool.engine is not old
    assert len(emit_calls) == 2
    faulted_done.set()
    slow.join(JOIN_S)
    assert not slow.is_alive()

    assert faulted["mode"] == "per-sample"
    (step,) = faulted["degradations"]
    assert (step["from"], step["to"]) == ("batched", "per-sample")
    assert_outputs_equal(faulted["outputs"], healthy)
    # ... the request in flight finished on the engine it started on ...
    assert responses["in-flight"]["mode"] == "batched"
    assert responses["in-flight"]["degradations"] == []
    assert_outputs_equal(responses["in-flight"]["outputs"], healthy)
    assert old.diagnostics.codegen_batches == 2
    # ... and the next request pays no emission.
    after = pool.infer(feeds)
    assert after["mode"] == "batched"
    assert_outputs_equal(after["outputs"], healthy)
    assert len(emit_calls) == 2
    assert pool.rebuilds == 1


@pytest.mark.parametrize("with_deadline", [False, True])
def test_saturated_gate_rejects_within_the_checkout_bound(with_deadline):
    compiled = compile_model(small_cnn())
    feeds = example_feeds(compiled.graph, count=1, seed=1)
    pool = _pool(compiled, size=1, checkout_timeout_s=0.05)
    holding = threading.Event()
    release = threading.Event()

    def hold(node):
        holding.set()
        assert release.wait(JOIN_S)

    pool.engine.batch_fault_hook = hold
    holder = threading.Thread(
        target=lambda: pool.infer(feeds), daemon=True
    )
    holder.start()
    try:
        assert holding.wait(JOIN_S)
        deadline = Deadline(0.1) if with_deadline else None
        started = time.monotonic()
        with pytest.raises(AdmissionError) as excinfo:
            pool.infer(feeds, deadline=deadline)
        assert time.monotonic() - started < 5.0
    finally:
        release.set()
        holder.join(JOIN_S)
    assert not holder.is_alive()
    details = excinfo.value.details
    assert set(details) == {
        "queue", "pool_size", "timeout_s", "retry_after_s",
    }
    assert details["queue"] == "engine-pool"
    assert details["pool_size"] == 1
    assert details["retry_after_s"] == 0.5
    if with_deadline:
        assert 0 < details["timeout_s"] <= 0.1
    else:
        assert details["timeout_s"] == 0.05
    # The slot came back with the holder's request.
    pool.engine.batch_fault_hook = None
    assert pool.infer(feeds)["mode"] == "batched"
