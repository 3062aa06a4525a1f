"""``serve_cnn`` and ``serve_decoder``: inference over the socket.

One op is one ``POST /models/<name>/infer {"batch": 1, "seed": s}``
against ``python -m repro serve`` running as a subprocess with its
defaults, sent by one closed-loop caller.  The two workloads cross the
same serve layers and load them oppositely: ``mobilenet_v3`` spends
its round trip in the engine (emitted numpy code) and answers 23 KB,
``decoder_tiny`` spends it in the HTTP shell, encoding 6.3 MB of
``tolist()`` JSON around a short engine call.  Engine work must show on
the first and barely on the second; encoding work the other way round.
"""

from __future__ import annotations

import hashlib
import http.client
import os
import random
import threading
import time
from contextlib import ExitStack
from typing import Dict, List, Optional, Tuple

import numpy as np

from e2e import reference, speed, stats, trace
from e2e.result import Outcome
from e2e.server import Client, ServerError, ServerProcess

MODELS = {"serve_cnn": "mobilenet_v3", "serve_decoder": "decoder_tiny"}

#: Distinct request inputs a run cycles through, drawn from ``--seed``.
REQUEST_SEEDS = 4
#: Of those, how many are also held against the float interpreter.
FLOAT_CHECKED = 1
WARMUP_REQUESTS = 4
#: Server bring-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: The timed phase runs on past ``--seconds`` until the p90 has its
#: samples, but never beyond this multiple of it.
OVERRUN_CAP = 2.5

TRACED_REQUESTS = 30
#: Share of ``--seconds`` the two-connection phase of a traced run gets.
C2_SHARE = 0.4


def request_seeds(seed: int, count: int) -> List[int]:
    return random.Random(seed).sample(range(1, 1_000_000), count)


def digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


class Serving:
    """A server subprocess brought up to the point of taking traffic:
    started, model registered and compiled, warm-up requests answered
    (the pool's second engine emits its code on the second of them)."""

    def __init__(
        self, src_dir: str, cache_dir: str, model: str, seeds: List[int]
    ) -> None:
        self.model = model
        self.client: Optional[Client] = None
        meter = speed.SpeedMeter()
        mark = meter.sample()
        started = time.perf_counter()
        self.server = ServerProcess(src_dir, cache_dir).start()
        try:
            self.client = Client(self.server.port)
            self.reply, _ = self.client.register(model)
            for index in range(WARMUP_REQUESTS):
                status, _, _ = self.client.infer(
                    model, seeds[index % len(seeds)]
                )
                if status != 200:
                    raise ServerError(f"warm-up request: HTTP {status}")
        except BaseException:
            self.close()
            raise
        wall = time.perf_counter() - started
        meter.sample()
        #: Start to ready-for-traffic, in seconds at reference speed.
        #: The server works on its own core meanwhile, so the spins
        #: are taken at the two ends only.
        self.setup_s = wall * meter.factor(mark)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.server.stop()

    def __enter__(self) -> "Serving":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Checker:
    """Replies against the reference: a full bit-for-bit comparison
    once per request seed, outside the timing; a sha256 of the body per
    timed request, so checking does not load the two-core box."""

    def __init__(self, model: str, outcome: Outcome) -> None:
        self.model = model
        self.outcome = outcome
        self.reference = reference.ServedReference(model)
        self.expected: Dict[int, Dict[str, np.ndarray]] = {}
        self.digests: Dict[int, str] = {}
        self.body_bytes: List[int] = []

    def learn(self, client: Client, seed: int, float_check: bool) -> None:
        """Fetch ``seed`` once and hold the reply against the reference."""
        expected = self.expected[seed] = self.reference.expected(seed)
        status, body, _ = client.infer(self.model, seed)
        mismatch = (
            reference.body_mismatch(body, expected)
            if status == 200
            else f"HTTP {status}"
        )
        if mismatch is not None:
            self.outcome.violation(f"seed {seed}: {mismatch}")
        if float_check:
            message = reference.tolerance_violation(
                f"seed {seed}", self.reference.float_error(seed, expected)
            )
            if message is not None:
                self.outcome.violation(message)
        self.digests[seed] = digest(body)
        self.body_bytes.append(len(body))

    def failure(self, seed: int, status: int, body: bytes) -> Optional[str]:
        """Why a timed reply is wrong, or ``None``."""
        if status != 200:
            return f"HTTP {status}: {body[:200]!r}"
        if digest(body) == self.digests[seed]:
            return None
        # Different bytes: only a full parse says whether the outputs
        # moved or just their spelling.
        return reference.body_mismatch(body, self.expected[seed]) or (
            "body differs from the checked reply though outputs match"
        )


def one_request(
    model: str,
    client: Client,
    checker: Checker,
    seed: int,
    tracer: Optional[trace.Tracer] = None,
) -> Tuple[Optional[float], Optional[str], Optional[int]]:
    """Send one request; ``(latency ms, failure, root span)``.

    The reply is checked after the clock (and the root span) stopped.
    """
    op = None
    try:
        if tracer is None:
            status, body, seconds = client.infer(model, seed)
        else:
            with tracer.op("infer") as op:
                status, body, seconds = client.infer(model, seed)
    except (OSError, http.client.HTTPException) as exc:
        client.close()
        return None, f"{type(exc).__name__}: {exc}", op
    return seconds * 1e3, checker.failure(seed, status, body), op


def server_counters(client: Client) -> Tuple[int, int]:
    """``(degradations, rejections)`` from the server's ``/status``."""
    diagnostics = client.get_json("/status")["diagnostics"]
    return (
        len(diagnostics["degradations"]),
        sum(diagnostics["rejections"].values()),
    )


def run_timed(
    name: str,
    seed: int,
    seconds: float,
    workspace: str,
    src_dir: str,
    smoke: bool,
) -> Outcome:
    """The untraced run: bring-ups, reference, one timed caller."""
    model = MODELS[name]
    outcome = Outcome(name)
    seeds = request_seeds(seed, 2 if smoke else REQUEST_SEEDS)
    setups: List[float] = []

    def cache_dir() -> str:
        path = os.path.join(workspace, f"serve-{len(setups)}")
        os.mkdir(path)
        return path

    for _ in range(0 if smoke else SETUP_REPEATS - 1):
        with Serving(src_dir, cache_dir(), model, seeds) as spare:
            setups.append(spare.setup_s)
    with Serving(src_dir, cache_dir(), model, seeds) as serving:
        setups.append(serving.setup_s)
        client = serving.client
        checker = Checker(model, outcome)
        for index, request_seed in enumerate(seeds):
            checker.learn(client, request_seed, index < FLOAT_CHECKED)

        done: List[Tuple[int, int, float]] = []  # (seed, mark, raw ms)
        meter = speed.SpeedMeter()
        needed = 0 if smoke else stats.P90_MIN_SAMPLES
        started = time.perf_counter()
        sent = 0
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(done) >= needed:
                break
            if elapsed >= seconds * OVERRUN_CAP:
                break
            request_seed = seeds[sent % len(seeds)]
            sent += 1
            # The caller's think time: the server is idle meanwhile.
            mark = meter.sample()
            latency, failure, _ = one_request(
                model, client, checker, request_seed
            )
            outcome.attempt(failure, request_seed)
            if failure is None:
                done.append((request_seed, mark, latency))
        meter.sample()
        peak_rss_mb = serving.server.peak_rss_mb()
        degraded, rejected = server_counters(client)
        if degraded or rejected:
            outcome.violation(
                f"server recorded {degraded} degradations, "
                f"{rejected} rejections"
            )

    by_seed: Dict[int, List[float]] = {s: [] for s in seeds}
    factors = [meter.factor(mark) for _, mark, _ in done]
    for (request_seed, _, raw_ms), factor in zip(done, factors):
        by_seed[request_seed].append(raw_ms * factor)
    if any(not v for v in by_seed.values()):
        outcome.violation("a request seed never succeeded; nothing to time")
        return outcome
    outcome.notes["speed_factor_p50"] = round(stats.median(factors), 4)
    outcome.notes["speed_factor_min"] = round(min(factors), 4)
    outcome.notes["raw_op_ms_p50"] = stats.median([ms for _, _, ms in done])
    latencies = [ms for v in by_seed.values() for ms in v]
    outcome.samples = len(latencies)
    try:
        tail = (
            stats.percentile(latencies, 0.9) if smoke else stats.p90(latencies)
        )
    except stats.InsufficientSamples as exc:
        outcome.violation(str(exc))
        return outcome
    outcome.values.update(
        {
            "setup_s": stats.median(setups),
            "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
            "op_ms_p50": stats.median(latencies),
            "op_ms_tail": tail,
            "op_ms_geomean": stats.geomean(
                [stats.median(v) for v in by_seed.values()]
            ),
            "modelled_cycles_geomean": float(
                serving.reply["model"]["artifact"]["total_cycles"]
            ),
            "peak_rss_mb": peak_rss_mb,
        }
    )
    return outcome


# -- the traced run ---------------------------------------------------

#: span name -> the per-request metric its self time is booked under.
REQUEST_SPAN_METRIC = {
    "infer": "serve.http_shell_ms",
    "serve.infer": "serve.service_ms",
    "serve.encode": "serve.encode_ms",
    "serve.feeds": "serve.feeds_ms",
    "serve.pool": "serve.pool_wait_ms",
    "runtime.engine_batch": "runtime.engine_overhead_ms",
    "codegen.emitted": "codegen.emitted_ms",
}


def total_ms(
    spans: List[trace.Span],
    factor_by_op: Dict[int, float],
    ops: List[int],
    name: str,
) -> float:
    """Summed duration, at reference speed, of the spans called
    ``name`` inside ``ops``."""
    return sum(
        (s.end - s.start) * 1e3 * factor_by_op[s.op]
        for s in spans
        if s.name == name and s.op in ops
    )


def layer_metrics(
    spans: List[trace.Span],
    factor_by_op: Dict[int, float],
    register_op: int,
    warmup_ops: List[int],
    request_ops: List[int],
) -> Dict[str, float]:
    """Per-layer metrics of one traced in-process serve session, at
    reference speed."""
    by_op = {
        op: {name: own * factor_by_op[op] for name, own in names.items()}
        for op, names in trace.self_ms_by_op(spans).items()
    }

    def wall_ms(op: int) -> float:
        return (spans[op].end - spans[op].start) * 1e3 * factor_by_op[op]

    per_request: Dict[str, List[float]] = {
        metric: [] for metric in REQUEST_SPAN_METRIC.values()
    }
    engine_batch: List[float] = []
    accounted: List[float] = []
    for op in request_ops:
        names = by_op[op]
        unknown = set(names) - set(REQUEST_SPAN_METRIC)
        if unknown:
            raise ValueError(f"unbooked spans in a request: {unknown}")
        for name, metric in REQUEST_SPAN_METRIC.items():
            per_request[metric].append(names.get(name, 0.0))
        engine_batch.append(
            total_ms(spans, factor_by_op, [op], "runtime.engine_batch")
        )
        accounted.append(1.0 - names["infer"] / wall_ms(op))
    values = {m: stats.median(v) for m, v in per_request.items()}
    values["runtime.engine_batch_ms"] = stats.median(engine_batch)
    values["trace.accounted_share"] = stats.median(accounted)

    setup_ops = [register_op] + warmup_ops
    register = by_op[register_op]
    emits = [
        s for s in spans if s.name == "codegen.emit" and s.op in setup_ops
    ]
    values.update(
        {
            "serve.register_ms": wall_ms(register_op),
            "serve.job_wait_ms": register["register"]
            + register.get("serve.register", 0.0),
            "serve.compile_ms": total_ms(
                spans, factor_by_op, [register_op], "serve.compile"
            ),
            "serve.pool_build_ms": register.get("serve.pool_build", 0.0),
            "runtime.calibration_ms": total_ms(
                spans, factor_by_op, [register_op], "runtime.calibration"
            ),
            "absint.analyze_ms": total_ms(
                spans, factor_by_op, [register_op], "absint.analyze"
            ),
            "codegen.emit_ms": total_ms(
                spans, factor_by_op, setup_ops, "codegen.emit"
            ),
            "codegen.emit_count": len(emits),
            "codegen.emit_source_lines": emits[0].value if emits else 0,
            "serve.warmup_request_ms_max": max(
                wall_ms(op) for op in warmup_ops
            ),
        }
    )
    return values


def two_connections(
    serving: Serving, checker: Checker, seeds: List[int], seconds: float
) -> Tuple[float, float]:
    """``(ops/s, median ms)`` with two closed-loop callers at once."""
    # Each caller appends to its own list; they are merged after join.
    results: List[List[Tuple[int, Optional[float], Optional[str]]]] = [[], []]
    clients = [serving.client, Client(serving.server.port)]
    started = time.perf_counter()

    def caller(index: int) -> None:
        sent = index  # the two callers start on different inputs
        while time.perf_counter() - started < seconds:
            request_seed = seeds[sent % len(seeds)]
            sent += 1
            latency, failure, _ = one_request(
                serving.model, clients[index], checker, request_seed
            )
            results[index].append((request_seed, latency, failure))

    threads = [
        threading.Thread(target=caller, args=(i,), name=f"caller-{i}")
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    clients[1].close()
    merged = []
    for request_seed, latency, failure in results[0] + results[1]:
        checker.outcome.attempt(failure, request_seed)
        if failure is None:
            merged.append(latency)
    if not merged:
        return 0.0, 0.0
    return len(merged) / wall, stats.median(merged)


def run_traced(
    name: str,
    seed: int,
    seconds: float,
    workspace: str,
    src_dir: str,
    out_dir: str,
    meta: Dict,
) -> Outcome:
    """Spans from a server in this process, then two connections
    against a server subprocess.

    A subprocess's internals cannot be wrapped, so the traced requests
    go to a ``ServeServer`` started here — still over a socket, still
    one caller.  Every other request is answered with the recorders
    switched off; the difference is the tracing overhead.
    """
    from repro.serve import ServeConfig, ServeServer

    model = MODELS[name]
    outcome = Outcome(name)
    seeds = request_seeds(seed, REQUEST_SEEDS)
    checker = Checker(model, outcome)
    tracer = trace.Tracer()
    cache_dir = os.path.join(workspace, "serve-traced")
    os.mkdir(cache_dir)
    warmup_ops: List[int] = []
    request_ops: List[int] = []
    meter = speed.SpeedMeter()
    mark_by_op: Dict[int, int] = {}
    traced: List[Tuple[int, float]] = []    # (mark, raw ms)
    untraced: List[Tuple[int, float]] = []

    with ExitStack() as stack:
        patches = stack.enter_context(ExitStack())
        patches.enter_context(
            trace.installed(tracer, trace.COMPILE_LAYERS, trace.SERVE_LAYERS)
        )
        server = ServeServer(ServeConfig(port=0, cache_dir=cache_dir))
        server.start(warm=False)
        stack.callback(server.stop)
        client = Client(server.port)
        stack.callback(client.close)

        mark = meter.sample()
        with tracer.op("register") as register_op:
            client.register(model)
        mark_by_op[register_op] = mark
        for index in range(WARMUP_REQUESTS):
            mark = meter.sample()
            with tracer.op("warmup") as op:
                client.infer(model, seeds[index % len(seeds)])
            mark_by_op[op] = mark
            warmup_ops.append(op)
        meter.sample()
        tracer.enabled = False
        for request_seed in seeds:
            checker.learn(client, request_seed, float_check=False)
        # Traced and untraced requests alternate, so a slow spell of
        # the box falls on both sides of the overhead ratio.
        for index in range(2 * TRACED_REQUESTS):
            request_seed = seeds[index // 2 % len(seeds)]
            tracer.enabled = index % 2 == 0
            mark = meter.sample()
            latency, failure, op = one_request(
                model, client, checker, request_seed,
                tracer if tracer.enabled else None,
            )
            outcome.attempt(failure, request_seed)
            if failure is not None:
                continue
            if op is None:
                untraced.append((mark, latency))
            else:
                mark_by_op[op] = mark
                request_ops.append(op)
                traced.append((mark, latency))
        tracer.enabled = False
        patches.close()
        meter.sample()

    if len(request_ops) < TRACED_REQUESTS or not untraced:
        outcome.violation("traced requests failed; no layer metrics")
        return outcome
    factor_by_op = {op: meter.factor(m) for op, m in mark_by_op.items()}
    traced_ms = [ms * meter.factor(m) for m, ms in traced]
    untraced_ms = [ms * meter.factor(m) for m, ms in untraced]
    values = layer_metrics(
        tracer.spans, factor_by_op, register_op, warmup_ops, request_ops
    )
    values["serve.response_bytes"] = stats.median(checker.body_bytes)
    values["runtime.executor_ref_ms"] = (
        stats.median(checker.reference.run_seconds) * 1e3
    )
    values["codegen.speedup_vs_interpreter"] = (
        values["runtime.executor_ref_ms"] / values["codegen.emitted_ms"]
    )
    values["trace.overhead_share"] = (
        sum(traced_ms) / sum(untraced_ms) - 1.0
    )
    outcome.notes["traced_op_ms_p50"] = stats.median(traced_ms)
    outcome.notes["engine_share_of_op"] = values[
        "runtime.engine_batch_ms"
    ] / stats.median(traced_ms)

    c2_dir = os.path.join(workspace, "serve-c2")
    os.mkdir(c2_dir)
    with Serving(src_dir, c2_dir, model, seeds) as serving:
        ops_per_s, p50 = two_connections(
            serving, checker, seeds, seconds * C2_SHARE
        )
        degraded, rejected = server_counters(serving.client)
    values.update(
        {
            "serve.c2_ops_per_s": ops_per_s,
            "serve.c2_op_ms_p50": p50,
            "serve.degraded_responses": degraded,
            "serve.rejections": rejected,
        }
    )
    outcome.values.update(values)
    outcome.samples = len(request_ops)
    path = os.path.join(out_dir, f"trace-{name}.json")
    trace.dump(tracer, path, meta)
    outcome.notes["trace_file"] = path
    return outcome
