"""HTTP layer of repro.serve: routes, status codes, structured bodies.

Boots a real ``ThreadingHTTPServer`` on an ephemeral port and drives it
with urllib — the same path a curl user takes — asserting that every
error comes back as a :meth:`ReproError.to_dict` body with the right
status code, and that admission rejections carry ``Retry-After``.
"""

import http.client
import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ReproError
from repro.graph.serialization import save_graph
from repro.serve import ServeConfig, ServeServer
from repro.serve.app import MAX_INFER_BATCH
from repro.serve.chaos import build_chaos_graph


def _request(url, payload=None, method=None):
    """Return ``(status, body_dict, headers)`` without raising on 4xx/5xx."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "chaos_cnn.json"
    save_graph(build_chaos_graph(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def server(tmp_path_factory, graph_path):
    config = ServeConfig(
        cache_dir=str(tmp_path_factory.mktemp("serve-cache")),
        graph_root=os.path.dirname(graph_path),
        retry_backoff_s=0.01,
    )
    with ServeServer(config) as srv:
        status, body, _ = _request(
            f"{srv.url}/models",
            {"name": "m1", "source": graph_path, "wait": True},
        )
        assert status == 200 and body["job"]["state"] == "done", body
        yield srv


class TestRoutes:
    def test_healthz(self, server):
        status, body, _ = _request(f"{server.url}/healthz")
        assert status == 200 and body == {"ok": True}

    def test_status_lists_models_and_diagnostics(self, server):
        status, body, _ = _request(f"{server.url}/status")
        assert status == 200
        assert body["models"][0]["name"] == "m1"
        assert body["models"][0]["state"] == "ready"
        assert "degradations" in body["diagnostics"]

    def test_model_listing_and_detail(self, server):
        status, body, _ = _request(f"{server.url}/models")
        assert status == 200
        assert [m["name"] for m in body["models"]] == ["m1"]
        status, body, _ = _request(f"{server.url}/models/m1")
        assert status == 200
        assert body["artifact"]["operators"] > 0

    def test_job_view(self, server):
        status, body, _ = _request(f"{server.url}/jobs/job-1")
        assert status == 200
        assert body["state"] == "done"
        assert body["model"] == "m1"

    def test_lint_and_leaderboard_views(self, server):
        status, lint, _ = _request(f"{server.url}/models/m1/lint")
        assert status == 200 and "summary" in lint
        status, board, _ = _request(
            f"{server.url}/models/m1/leaderboard?limit=3"
        )
        assert status == 200 and board["rows"] == []

    def test_infer_with_synthetic_feeds(self, server):
        status, body, _ = _request(
            f"{server.url}/models/m1/infer", {"batch": 2, "seed": 5}
        )
        assert status == 200
        assert body["mode"] == "batched"
        assert len(body["outputs"]) == 2

    def test_infer_with_explicit_feeds_matches_synthetic(self, server):
        from repro.harness import example_feeds

        graph = server.service.registry.get("m1").compiled.graph
        feeds = example_feeds(graph, count=1, seed=5)[0]
        payload = {
            "feeds": [
                {name: value.tolist() for name, value in feeds.items()}
            ]
        }
        _, explicit, _ = _request(
            f"{server.url}/models/m1/infer", payload
        )
        _, synthetic, _ = _request(
            f"{server.url}/models/m1/infer", {"batch": 1, "seed": 5}
        )
        assert explicit["outputs"] == synthetic["outputs"]


class TestErrorBodies:
    def test_unknown_route_is_404_graph_error(self, server):
        status, body, _ = _request(f"{server.url}/nope")
        assert status == 404
        assert body["code"] == "graph-error"

    def test_unknown_model_is_404(self, server):
        status, body, _ = _request(
            f"{server.url}/models/ghost/infer", {"batch": 1}
        )
        assert status == 404
        assert body["code"] == "graph-error"
        assert "ghost" in body["message"]

    def test_unknown_job_is_404(self, server):
        status, body, _ = _request(f"{server.url}/jobs/job-999")
        assert status == 404

    def test_malformed_json_body_is_400(self, server):
        req = urllib.request.Request(
            f"{server.url}/models/m1/infer",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                status, body = resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            status, body = exc.code, json.loads(exc.read())
        assert status == 400
        assert body["code"] == "service-error"
        assert "JSON" in body["message"]

    def test_register_without_name_is_400(self, server):
        status, body, _ = _request(f"{server.url}/models", {})
        assert status == 400
        assert body["code"] == "service-error"

    def test_infer_deadline_is_504(self, server):
        status, body, _ = _request(
            f"{server.url}/models/m1/infer",
            {"batch": 1, "deadline_s": 1e-6},
        )
        assert status == 504
        assert body["code"] == "deadline-exceeded"

    def test_error_bodies_round_trip_via_from_dict(self, server):
        _, body, _ = _request(f"{server.url}/models/ghost/infer", {})
        revived = ReproError.from_dict(body)
        assert revived.code == "graph-error"
        assert "ghost" in revived.message

    def test_bad_register_deadline_is_400_and_not_registered(
        self, server, graph_path
    ):
        status, body, _ = _request(
            f"{server.url}/models",
            {
                "name": "bad_deadline",
                "source": graph_path,
                "deadline_s": "yesterday",
            },
        )
        assert status == 400
        assert body["code"] == "service-error"
        assert body["details"]["field"] == "deadline_s"
        status, _, _ = _request(f"{server.url}/models/bad_deadline")
        assert status == 404

    @pytest.mark.parametrize(
        "options",
        [
            {"selection": "gdc2"},
            {"kernel_efficiency": 0},
            {"max_operators": "13"},
        ],
    )
    def test_bad_option_value_is_400_and_not_registered(
        self, server, graph_path, options
    ):
        _, before, _ = _request(f"{server.url}/status")
        status, body, _ = _request(
            f"{server.url}/models",
            {"name": "bad_option", "source": graph_path,
             "options": options},
        )
        assert status == 400
        assert body["code"] == "service-error"
        assert body["stage"] == "serve"
        assert next(iter(options)) in body["message"]
        assert body["details"]["options"] == options
        status, _, _ = _request(f"{server.url}/models/bad_option")
        assert status == 404
        _, after, _ = _request(f"{server.url}/status")
        assert len(after["jobs"]) == len(before["jobs"])
        assert after["queue"]["depth"] == before["queue"]["depth"]

    def test_non_positive_infer_deadline_is_400(self, server):
        status, body, _ = _request(
            f"{server.url}/models/m1/infer",
            {"batch": 1, "deadline_s": 0},
        )
        assert status == 400
        assert body["code"] == "service-error"

    def test_non_integer_batch_is_400(self, server):
        status, body, _ = _request(
            f"{server.url}/models/m1/infer", {"batch": "two"}
        )
        assert status == 400
        assert body["code"] == "service-error"

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"batch": 10**9}, "batch"),
            ({"batch": MAX_INFER_BATCH + 1}, "batch"),
            ({"batch": 0}, "batch"),
            ({"batch": 1, "seed": -1}, "seed"),
        ],
        ids=["batch-1e9", "batch-over-bound", "batch-zero", "seed-negative"],
    )
    def test_out_of_range_infer_field_is_400(self, server, payload, field):
        # Rejected before a single input tensor is built: 10**9
        # samples would otherwise allocate until the process dies.
        status, body, _ = _request(f"{server.url}/models/m1/infer", payload)
        assert status == 400
        assert body["code"] == "service-error"
        assert body["details"]["field"] == field
        assert _request(f"{server.url}/status")[0] == 200

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
    def test_malformed_content_length_is_400(self, server, length):
        # `int("abc")` used to be a 500; `-1` made `rfile.read(-1)`
        # block the handler thread until the peer closed.
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/models/m1/infer")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["code"] == "service-error"
        assert body["details"]["field"] == "Content-Length"
        assert _request(f"{server.url}/status")[0] == 200

    def test_unexpected_exception_is_500_internal_error(self, server):
        def boom(*args, **kwargs):
            raise RuntimeError("server-side bug")

        original = server.service.infer
        server.service.infer = boom
        try:
            status, body, _ = _request(
                f"{server.url}/models/m1/infer", {"batch": 1}
            )
        finally:
            server.service.infer = original
        assert status == 500
        assert body["code"] == "internal-error"

    def test_filesystem_probe_source_is_rejected(self, server):
        for probe in ("/etc/passwd", "../../secrets.json"):
            status, body, _ = _request(
                f"{server.url}/models",
                {"name": "probe", "source": probe},
            )
            assert status == 404
            assert body["code"] == "graph-error"
            assert "escapes" in body["message"]


class TestAdmissionOverHttp:
    def test_queue_overflow_is_429_with_retry_after(
        self, tmp_path, graph_path
    ):
        gate = threading.Event()
        config = ServeConfig(
            cache_dir=str(tmp_path / "cache"),
            graph_root=os.path.dirname(graph_path),
            queue_capacity=1,
            retry_after_s=7.0,
        )
        with ServeServer(config) as srv:
            # Hold the single worker hostage mid-compile so the queue
            # stays full for the duration of the assertion.
            def block(artefact):
                gate.wait(timeout=60)
                return artefact

            srv.service.fault_hooks["graph"] = block
            try:
                _request(
                    f"{srv.url}/models",
                    {"name": "busy", "source": graph_path},
                )
                _request(
                    f"{srv.url}/models",
                    {"name": "queued", "source": graph_path},
                )
                status, body, headers = _request(
                    f"{srv.url}/models",
                    {"name": "rejected", "source": graph_path},
                )
                assert status == 429
                assert body["code"] == "admission-error"
                assert body["details"]["retry_after_s"] == 7.0
                assert headers["Retry-After"] == "7"
            finally:
                gate.set()


class TestRegisterSemantics:
    def test_async_register_returns_202_then_job_completes(
        self, tmp_path, graph_path
    ):
        config = ServeConfig(
            cache_dir=str(tmp_path / "cache"),
            graph_root=os.path.dirname(graph_path),
        )
        with ServeServer(config) as srv:
            status, body, _ = _request(
                f"{srv.url}/models",
                {"name": "later", "source": graph_path},
            )
            assert status in (200, 202)
            job_id = body["job"]["job_id"]
            job = srv.service.jobs.job(job_id)
            assert job.wait(timeout=120)
            status, body, _ = _request(f"{srv.url}/jobs/{job_id}")
            assert status == 200 and body["state"] == "done"
