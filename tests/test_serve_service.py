"""ServeService behaviour: registry, jobs, ladder, breaker, pools.

Drives the service core in-process (no HTTP) through its happy path
and every degradation rung, asserting that each downgrade is recorded
in the service diagnostics — the contract the chaos harness relies on.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    DeadlineExceeded,
    GraphError,
    ModelNotReadyError,
    QuarantinedError,
    ServiceError,
    SimulationError,
)
from repro.graph.serialization import save_graph
from repro.serve import ServeConfig, ServeService
from repro.serve.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.serve.chaos import build_chaos_graph
from repro.serve.jobs import JobQueue
from tests.conftest import small_cnn


@pytest.fixture
def graph_path(tmp_path):
    path = tmp_path / "chaos_cnn.json"
    save_graph(build_chaos_graph(), str(path))
    return str(path)


@pytest.fixture
def service(tmp_path, graph_path):
    svc = ServeService(
        ServeConfig(
            cache_dir=str(tmp_path / "cache"),
            graph_root=str(tmp_path),
            retry_backoff_s=0.01,
            breaker_threshold=2,
        )
    ).start(warm=False)
    yield svc
    svc.stop()


def _register(service, graph_path, name="m1", **kwargs):
    entry, job = service.register(name, source=graph_path, **kwargs)
    assert job.wait(timeout=120), "compile job hung"
    return entry, job


class TestRegisterAndCompile:
    def test_happy_path_compiles_and_serves(self, service, graph_path):
        entry, job = _register(service, graph_path)
        assert job.ok and entry.state == "ready"
        assert entry.compile_stats["rung"] == "as-requested"
        result = service.infer("m1", batch=2, seed=5)
        assert result["mode"] == "batched"
        assert len(result["outputs"]) == 2
        sample = result["outputs"][0]
        for payload in sample.values():
            assert set(payload) == {"shape", "dtype", "data"}

    def test_unknown_option_rejected_at_the_door(
        self, service, graph_path
    ):
        with pytest.raises(ServiceError) as excinfo:
            service.register(
                "m1", source=graph_path, options_payload={"jbos": 2}
            )
        assert "jbos" in str(excinfo.value)
        assert excinfo.value.details["allowed"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"selection": "gdc2"},
            {"kernel_efficiency": 0},
            {"kernel_efficiency": -1.0},
            {"kernel_efficiency": float("nan")},
            {"max_operators": 0},
            {"max_operators": "13"},
            {"max_operators": 2.5},
            {"include_extensions": "no"},
        ],
    )
    def test_bad_option_value_is_a_structured_400(self, payload):
        from repro.serve.app import http_status_for
        from repro.serve.registry import options_from_payload

        with pytest.raises(ServiceError) as excinfo:
            options_from_payload(payload)
        assert http_status_for(excinfo.value) == 400
        assert excinfo.value.stage == "serve"
        assert next(iter(payload)) in excinfo.value.message
        assert excinfo.value.details["options"] == payload

    def test_removed_jobs_option_is_an_unknown_key(self):
        from repro.serve.registry import options_from_payload

        with pytest.raises(ServiceError, match="unknown.*jobs"):
            options_from_payload({"jobs": 2})

    def test_unknown_source_rejected(self, service):
        with pytest.raises(GraphError):
            service.register("ghost", source="no_such_model")

    def test_infer_before_ready_is_structured(self, service, graph_path):
        # Registered but never compiled (job still queued behind the
        # worker); use a name that is not registered at all first.
        with pytest.raises(GraphError):
            service.infer("never_registered")

    def test_tuned_without_trials_degrades_to_default(
        self, service, graph_path
    ):
        entry, job = _register(
            service,
            graph_path,
            name="tuned_m",
            options_payload={"tuned": True},
        )
        assert job.ok
        steps = service.diagnostics.degradations_for("tuned_m")
        assert any(
            s["from"] == "tuned" and s["to"] == "default" for s in steps
        )

    def test_transient_fault_is_retried(self, service, graph_path):
        crashes = {"left": 1}

        def crash_once(artefact):
            if crashes["left"]:
                crashes["left"] -= 1
                raise OSError("flaky disk")
            return artefact

        service.fault_hooks["lowering"] = crash_once
        entry, job = _register(service, graph_path)
        assert job.ok
        assert job.retries == 1
        assert service.diagnostics.retries == 1

    def test_persistent_transient_fault_fails_structured(
        self, service, graph_path
    ):
        service.fault_hooks["lowering"] = lambda a: (_ for _ in ()).throw(
            OSError("always broken")
        )
        entry, job = _register(service, graph_path)
        assert not job.ok
        assert job.error["code"] == "service-error"
        assert "transient" in job.error["message"]


class TestDeadlines:
    def test_slow_compile_aborts_with_deadline_error(
        self, service, graph_path
    ):
        def slow(artefact):
            time.sleep(0.3)
            return artefact

        service.fault_hooks["selection"] = slow
        entry, job = _register(service, graph_path, deadline_s=0.1)
        assert not job.ok
        assert job.error["code"] == "deadline-exceeded"
        assert service.diagnostics.deadline_timeouts == 1

    def test_infer_deadline_is_cooperative(self, service, graph_path):
        _register(service, graph_path)
        with pytest.raises(DeadlineExceeded):
            service.infer("m1", batch=1, deadline_s=1e-6)
        assert service.diagnostics.deadline_timeouts == 1
        # The model still serves afterwards.
        assert service.infer("m1", batch=1)["mode"] == "batched"


class TestBreaker:
    def test_repeated_failures_quarantine_the_model(
        self, service, graph_path
    ):
        service.fault_hooks["graph"] = lambda a: (_ for _ in ()).throw(
            SimulationError("poisoned", stage="graph")
        )
        for _ in range(2):  # breaker_threshold=2
            _, job = _register(service, graph_path, name="sick")
            assert not job.ok
        assert service.breaker.state("sick") == STATE_OPEN
        # Third attempt fails fast without running a compile.
        _, job = _register(service, graph_path, name="sick")
        assert job.error["code"] == "quarantined-error"
        assert job.error["details"]["breaker_state"] == STATE_OPEN
        events = [
            e
            for e in service.diagnostics.breaker_events
            if e["model"] == "sick"
        ]
        assert any(e["state"] == STATE_OPEN for e in events)

    def test_other_models_unaffected_by_quarantine(
        self, service, graph_path
    ):
        service.breaker.record_failure("sick", "boom")
        service.breaker.record_failure("sick", "boom")
        assert service.breaker.state("sick") == STATE_OPEN
        _, job = _register(service, graph_path, name="healthy")
        assert job.ok


class TestCircuitBreakerUnit:
    def test_cooldown_then_probe_then_close(self):
        clock = {"now": 0.0}
        events = []
        breaker = CircuitBreaker(
            failure_threshold=2,
            cooldown_s=10.0,
            clock=lambda: clock["now"],
            on_event=lambda *a: events.append(a),
        )
        breaker.record_failure("m", "e1")
        assert breaker.state("m") == STATE_CLOSED
        breaker.record_failure("m", "e2")
        assert breaker.state("m") == STATE_OPEN
        with pytest.raises(QuarantinedError) as excinfo:
            breaker.check("m")
        assert excinfo.value.details["retry_after_s"] == 10.0
        clock["now"] = 11.0
        breaker.check("m")  # admitted as the half-open probe
        assert breaker.state("m") == STATE_HALF_OPEN
        # Concurrent caller is rejected while the probe is in flight.
        with pytest.raises(QuarantinedError):
            breaker.check("m")
        breaker.record_success("m")
        assert breaker.state("m") == STATE_CLOSED
        assert [e[1] for e in events] == [
            STATE_OPEN,
            STATE_HALF_OPEN,
            STATE_CLOSED,
        ]

    def test_probe_failure_reopens(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=5.0,
            clock=lambda: clock["now"],
        )
        breaker.record_failure("m", "e")
        clock["now"] = 6.0
        breaker.check("m")
        breaker.record_failure("m", "probe died")
        assert breaker.state("m") == STATE_OPEN
        with pytest.raises(QuarantinedError):
            breaker.check("m")


class TestAdmission:
    def test_full_queue_rejects_structured(self, tmp_path, graph_path):
        # No workers: nothing drains the queue.
        service = ServeService(
            ServeConfig(
                cache_dir=str(tmp_path / "cache-q"),
                graph_root=str(tmp_path),
                queue_capacity=2,
            )
        )
        service.register("a", source=graph_path)
        service.register("b", source=graph_path)
        with pytest.raises(AdmissionError) as excinfo:
            service.register("c", source=graph_path)
        details = excinfo.value.details
        assert details["queue"] == "compile"
        assert details["capacity"] == 2
        assert details["retry_after_s"] == 1.0
        assert service.diagnostics.rejections["compile-queue"] == 1
        # The rejected job does not linger in the job registry, and
        # the rejected model entry was rolled back.
        assert all(j.model != "c" for j in service.jobs.jobs())
        assert service.registry.maybe("c") is None

    def test_rejected_reregistration_keeps_live_entry(
        self, tmp_path, graph_path
    ):
        # No workers: the single queue slot stays occupied.
        service = ServeService(
            ServeConfig(
                cache_dir=str(tmp_path / "cache-rr"),
                graph_root=str(tmp_path),
                queue_capacity=1,
            )
        )
        before, _ = service.register("a", source=graph_path)
        with pytest.raises(AdmissionError):
            service.register("a", source=graph_path)
        # The live registration survives the rejected re-registration.
        assert service.registry.get("a") is before

    def test_worker_finds_entry_registered_before_submit(
        self, service, graph_path
    ):
        # The entry must be in the registry by the time the job is
        # queued — a worker dequeuing instantly must never see None
        # and spuriously fail with "model disappeared".
        entry, job = _register(service, graph_path, name="race")
        assert job.ok
        assert job.error is None

    def test_job_queue_unit(self):
        queue = JobQueue(capacity=1)
        job = queue.new_job("m")
        assert job.job_id == "job-1"
        queue.submit(job)
        with pytest.raises(AdmissionError):
            queue.submit(queue.new_job("m2"))
        assert queue.take(timeout=0.01) is job
        assert queue.take(timeout=0.01) is None


class TestInferencePaths:
    def test_explicit_feeds_round_trip(self, service, graph_path):
        _register(service, graph_path)
        graph = service.registry.get("m1").compiled.graph
        from repro.harness import example_feeds

        feeds = example_feeds(graph, count=1, seed=3)[0]
        encoded = [
            {name: value.tolist() for name, value in feeds.items()}
        ]
        via_payload = service.infer("m1", feeds=encoded)
        via_synthetic = service.infer("m1", batch=1, seed=3)
        assert via_payload["outputs"] == via_synthetic["outputs"]

    def test_bad_feed_payload_is_structured(self, service, graph_path):
        _register(service, graph_path)
        with pytest.raises(ServiceError):
            service.infer("m1", feeds=[{"image": ["not", "numbers"]}])
        with pytest.raises(ServiceError):
            service.infer("m1", feeds=["not-a-dict"])

    def test_mid_batch_failure_degrades_bit_identically(
        self, service, graph_path
    ):
        _register(service, graph_path)
        baseline = service.infer("m1", batch=2, seed=9)
        entry = service.registry.get("m1")
        fails = {"left": 1}

        def die_once(node):
            if fails["left"]:
                fails["left"] -= 1
                raise RuntimeError("mid-batch fault")

        entry.pool.engine.batch_fault_hook = die_once
        degraded = service.infer("m1", batch=2, seed=9)
        assert degraded["mode"] == "per-sample"
        assert degraded["outputs"] == baseline["outputs"]
        steps = service.diagnostics.degradations_for("m1")
        assert any(
            s["from"] == "batched" and s["to"] == "per-sample"
            for s in steps
        )

    def test_failed_model_reports_not_ready(self, service, graph_path):
        service.fault_hooks["graph"] = lambda a: (_ for _ in ()).throw(
            SimulationError("poisoned", stage="graph")
        )
        _, job = _register(service, graph_path, name="broken")
        assert not job.ok
        with pytest.raises(ModelNotReadyError) as excinfo:
            service.infer("broken")
        assert excinfo.value.details["state"] == "failed"

    def test_event_records_stay_bounded_over_a_long_life(
        self, service, graph_path, broken_emitter
    ):
        # A latched emission failure degrades every response and a
        # tiny deadline is client-drivable: neither may grow the
        # server (or its /status payload) per request.
        from repro.serve.diagnostics import EVENT_RING

        _register(service, graph_path)
        diag = service.diagnostics

        def container_lengths():
            return {
                name: len(value)
                for name, value in vars(diag).items()
                if hasattr(value, "__len__")
            }

        def drive(count):
            for _ in range(count):
                assert service.infer("m1", batch=1)["degradations"]
                with pytest.raises(DeadlineExceeded):
                    service.infer("m1", batch=1, deadline_s=1e-6)

        drive(EVENT_RING)
        full = container_lengths()
        drive(1000 - EVENT_RING)
        assert container_lengths() == full
        assert len(diag.degradations_for("m1")) == EVENT_RING
        totals = diag.to_payload()["totals"]
        assert totals["degradations"] == 1000
        assert totals["warnings"] == 1000


class TestWarmStart:
    def test_restart_restores_and_serves_identically(
        self, tmp_path, graph_path
    ):
        cache_dir = str(tmp_path / "warm-cache")
        config = ServeConfig(
            cache_dir=cache_dir, graph_root=str(tmp_path)
        )
        first = ServeService(config).start(warm=False)
        _register(first, graph_path)
        baseline = first.infer("m1", batch=2, seed=11)["outputs"]
        first.stop()

        second = ServeService(config).start(warm=True)
        try:
            warm = second.diagnostics.warm_start
            assert warm["manifest_models"] == 1
            assert warm["restored"] == 1
            # Every packing lookup must hit the disk cache: a warm
            # restart recompiles through the cache, not from scratch.
            assert warm["cache_misses"] == 0
            assert warm["cache_hits"] > 0
            after = second.infer("m1", batch=2, seed=11)["outputs"]
            assert after == baseline
        finally:
            second.stop()

    def test_manifest_with_removed_jobs_option_restores(
        self, tmp_path, graph_path
    ):
        # A models.json persisted while ``options.jobs`` existed: its
        # artefact was bit-identical to jobs=1, so the key is dropped.
        cache_dir = tmp_path / "old-cache"
        config = ServeConfig(
            cache_dir=str(cache_dir), graph_root=str(tmp_path)
        )
        fresh = ServeService(config).start(warm=False)
        entry, _ = _register(fresh, graph_path)
        cycles = entry.compiled.total_cycles
        fresh.stop()
        manifest = cache_dir / "serve" / "models.json"
        payload = json.loads(manifest.read_text())
        payload["models"][0]["options"] = {"jobs": 4}
        manifest.write_text(json.dumps(payload))

        restored = ServeService(config).start(warm=True)
        try:
            entry = restored.registry.get("m1")
            assert entry.state == "ready"
            assert entry.compiled.total_cycles == cycles
            assert entry.options_payload == {}
        finally:
            restored.stop()

    def test_corrupt_manifest_starts_cold(self, tmp_path, graph_path):
        cache_dir = tmp_path / "manifest-cache"
        (cache_dir / "serve").mkdir(parents=True)
        (cache_dir / "serve" / "models.json").write_text("{broken")
        service = ServeService(
            ServeConfig(cache_dir=str(cache_dir))
        ).start(warm=True)
        try:
            assert service.diagnostics.warm_start["manifest_models"] == 0
            assert service.registry.names() == []
        finally:
            service.stop()

    def test_status_and_views(self, service, graph_path):
        _register(service, graph_path)
        service.infer("m1", batch=1)
        status = service.status()
        assert status["models"][0]["name"] == "m1"
        assert status["models"][0]["state"] == "ready"
        assert status["models"][0]["artifact"]["operators"] > 0
        assert status["diagnostics"]["inference_requests"] == 1
        assert status["queue"]["capacity"] == 8
        lint = service.lint("m1")
        assert "summary" in lint
        board = service.leaderboard("m1")
        assert board["rows"] == []


class TestDeadlineValidation:
    @pytest.mark.parametrize(
        "bad", [0, -1, "soon", float("nan"), float("inf"), True, [5]]
    )
    def test_bad_register_deadline_rejected_at_the_door(
        self, service, graph_path, bad
    ):
        with pytest.raises(ServiceError) as excinfo:
            service.register("m_bad", source=graph_path, deadline_s=bad)
        assert excinfo.value.details["field"] == "deadline_s"
        # Nothing was registered or queued.
        assert service.registry.maybe("m_bad") is None
        assert all(j.model != "m_bad" for j in service.jobs.jobs())

    def test_bad_deadline_never_reaches_the_worker(
        self, service, graph_path
    ):
        with pytest.raises(ServiceError):
            service.register("m_bad", source=graph_path, deadline_s=0)
        # The compile worker is alive and serves the next job.
        _, job = _register(service, graph_path, name="m_ok")
        assert job.ok

    def test_bad_infer_deadline_rejected(self, service, graph_path):
        _register(service, graph_path)
        with pytest.raises(ServiceError):
            service.infer("m1", batch=1, deadline_s=-2)
        with pytest.raises(ServiceError):
            service.infer("m1", batch=1, deadline_s="fast")
        # Still serving.
        assert service.infer("m1", batch=1)["mode"] == "batched"


class TestWorkerResilience:
    def test_unexpected_error_fails_job_not_worker(
        self, service, graph_path, monkeypatch
    ):
        original = service.breaker.check
        calls = {"n": 0}

        def explode(model):
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("bug outside the ladder")
            return original(model)

        monkeypatch.setattr(service.breaker, "check", explode)
        _, job = _register(service, graph_path, name="victim")
        assert not job.ok
        assert job.error["code"] == "internal-error"
        entry = service.registry.get("victim")
        assert entry.state == "failed"
        # The worker thread survived to run the next compile.
        _, job2 = _register(service, graph_path, name="survivor")
        assert job2.ok


class TestGraphRootContainment:
    def test_source_outside_root_rejected(
        self, service, tmp_path_factory
    ):
        from repro.graph.serialization import save_graph
        from repro.serve.chaos import build_chaos_graph

        outside = tmp_path_factory.mktemp("outside") / "g.json"
        save_graph(build_chaos_graph(), str(outside))
        with pytest.raises(GraphError, match="escapes"):
            service.register("evil", source=str(outside))

    def test_traversal_rejected(self, service):
        with pytest.raises(GraphError, match="escapes"):
            service.register("evil", source="../../etc/passwd.json")

    def test_path_sources_disabled_without_root(
        self, tmp_path, graph_path
    ):
        svc = ServeService(
            ServeConfig(cache_dir=str(tmp_path / "no-root"))
        )
        with pytest.raises(GraphError, match="disabled"):
            svc.register("m", source=graph_path)

    def test_relative_source_resolves_inside_root(
        self, service, graph_path
    ):
        # graph_path lives directly under the configured graph root.
        entry, job = _register(service, graph_path, name="rel")
        assert job.ok
        _, job2 = service.register("rel2", source="chaos_cnn.json")
        assert job2.wait(timeout=120) and job2.ok


class TestEnginePool:
    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.compiler import CompilerOptions, compile_model
        from repro.serve.chaos import build_chaos_graph

        return compile_model(build_chaos_graph(), CompilerOptions())

    @staticmethod
    def _assert_outputs_equal(a, b):
        assert len(a) == len(b)
        for sample_a, sample_b in zip(a, b):
            assert set(sample_a) == set(sample_b)
            for key in sample_a:
                np.testing.assert_array_equal(sample_a[key], sample_b[key])

    def _pool(self, compiled, **kwargs):
        from repro.harness import example_feeds
        from repro.serve.pool import EnginePool

        return EnginePool(
            compiled,
            calibration_feeds=example_feeds(
                compiled.graph, count=2, seed=99
            ),
            **kwargs,
        )

    def test_every_engine_in_the_pool_serves_batched(self, compiled):
        from repro.harness import example_feeds

        pool = self._pool(compiled, size=2)
        feeds = example_feeds(compiled.graph, count=2, seed=17)
        first = pool.infer(feeds)
        # Every slot of the gate leads to the one shared engine: the
        # second request is served by the same emitted code.
        second = pool.infer(feeds)
        assert first["mode"] == "batched"
        assert second["mode"] == "batched"
        self._assert_outputs_equal(first["outputs"], second["outputs"])

    def test_saturated_pool_times_out_without_deadline(self, compiled):
        pool = self._pool(compiled, size=1, checkout_timeout_s=0.05)
        pool._admit(None)  # hold the only slot of the gate
        from repro.harness import example_feeds

        feeds = example_feeds(compiled.graph, count=1, seed=1)
        started = time.monotonic()
        with pytest.raises(AdmissionError) as excinfo:
            pool.infer(feeds)
        assert time.monotonic() - started < 5.0
        assert excinfo.value.details == {
            "queue": "engine-pool",
            "pool_size": 1,
            "timeout_s": 0.05,
            "retry_after_s": 0.5,
        }
        pool._gate.release()
        assert pool.infer(feeds)["mode"] == "batched"

    def test_failed_engine_is_rebuilt_not_recirculated(self, compiled):
        from repro.harness import example_feeds

        pool = self._pool(compiled, size=1)
        broken = pool.engine

        def always_die(node):
            raise RuntimeError("persistently broken engine")

        broken.batch_fault_hook = always_die
        feeds = example_feeds(compiled.graph, count=2, seed=3)
        degraded = pool.infer(feeds)
        assert degraded["mode"] == "per-sample"
        assert pool.rebuilds == 1
        assert pool.engine is not broken
        # The fresh engine serves batched again — a persistently
        # broken engine must not keep circulating.
        batched = pool.infer(feeds)
        assert batched["mode"] == "batched"
        self._assert_outputs_equal(batched["outputs"], degraded["outputs"])
