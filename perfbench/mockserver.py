"""In-process mock of the SafeSearch HTTP endpoint.

Each response is derived from a hash of the posted URI (see
`corpus.mock_levels`). A fixed set of images (`corpus.rate_limited_once`) is
answered with 429 on the first request and 200 afterwards. A fixed pool of
threads, one per extraction worker, accepts connections and serves each with
HTTP/1.1 keep-alive, so the endpoint never runs more threads than the
program under test has workers.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler

import corpus


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # an idle keep-alive connection frees its thread after this

    def do_POST(self):
        start = time.perf_counter()
        mock = self.server
        length = int(self.headers.get("Content-Length", 0))
        uri = json.loads(self.rfile.read(length))["image"]["source"]["uri"]
        with mock.lock:
            mock.attempts += 1
            limited = corpus.rate_limited_once(uri) and uri not in mock.limited_seen
            if limited:
                mock.limited_seen.add(uri)
                mock.n429 += 1
        if limited:
            self.send_response(429)
            self.send_header("Content-Length", "0")
            self.end_headers()
        else:
            levels = corpus.mock_levels(uri)
            body = json.dumps({field: corpus.LEVELS[k]
                               for field, k in zip(corpus.RESPONSE_FIELDS, levels)}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        with mock.lock:
            mock.busy_s += time.perf_counter() - start

    def log_message(self, *args):
        pass


class MockSafeSearch:
    """Counting endpoint on 127.0.0.1; use as a context manager."""

    def __init__(self, threads: int):
        self.lock = threading.Lock()
        self.reset()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}/v1/images:annotate"
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._serve, daemon=True)
                         for _ in range(threads)]

    def reset(self) -> None:
        """Zero the counters and forget which images were already refused."""
        with self.lock:
            self.attempts = 0
            self.n429 = 0
            self.busy_s = 0.0
            self.limited_seen: set[str] = set()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            try:
                _Handler(conn, addr, self)
            except OSError:
                pass
            finally:
                conn.close()

    def __enter__(self) -> "MockSafeSearch":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()
        self._sock.close()
