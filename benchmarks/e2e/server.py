"""The server under test as a subprocess, and a timing HTTP client.

``python -m repro serve`` is started the way a user starts it; the
benchmark sees only its stdout banner and its HTTP endpoints.  The
server picks its own free port (``--port 0``) and prints it, so two
benchmark runs on one box never race for a number.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, Optional, Tuple

#: A server that has not printed its banner by then is killed.
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    """The server subprocess did not come up or answered wrongly."""


class ServerProcess:
    """``repro serve`` over a fresh cache dir; a context manager."""

    def __init__(self, src_dir: str, cache_dir: str) -> None:
        self.src_dir = src_dir
        self.cache_dir = cache_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> "ServerProcess":
        """Spawn the server and wait for its banner."""
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--port", "0", "--cache-dir", self.cache_dir,
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            banner = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        try:
            # "serving on http://127.0.0.1:<port>"
            self.port = int(banner.strip().rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise ServerError(
                f"no banner from repro serve (got {banner!r})"
            ) from None
        return self

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Terminate, then kill; always reaps the child."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")


class Client:
    """One closed-loop caller: a request is sent when the previous
    reply has been read.  The server speaks HTTP/1.0, so each request
    opens a connection; ``http.client`` does that on its own."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def close(self) -> None:
        self.conn.close()

    def post(self, path: str, payload: Dict) -> Tuple[int, bytes, float]:
        """``(status, body, seconds)``; the body is read inside the
        timed region, the caller has the reply when the clock stops."""
        data = json.dumps(payload)
        started = time.perf_counter()
        self.conn.request(
            "POST", path, data, {"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        body = response.read()
        return response.status, body, time.perf_counter() - started

    def get_json(self, path: str) -> Dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise ServerError(f"GET {path} -> {response.status}")
        return json.loads(body)

    def register(self, model: str) -> Tuple[Dict, float]:
        """Register ``model`` and wait for its compile; the reply and
        the round trip in seconds."""
        status, body, seconds = self.post(
            "/models", {"name": model, "wait": True}
        )
        reply = json.loads(body)
        state = reply.get("model", {}).get("state")
        if status != 200 or state != "ready":
            raise ServerError(
                f"register {model}: HTTP {status}, state {state!r}: "
                f"{body[:300]!r}"
            )
        return reply, seconds

    def infer(self, model: str, seed: int) -> Tuple[int, bytes, float]:
        return self.post(
            f"/models/{model}/infer", {"batch": 1, "seed": seed}
        )
