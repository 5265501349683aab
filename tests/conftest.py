"""Shared fixtures: tiny handwritten datasets, a synthetic CSV corpus, and a
counting mock SafeSearch HTTP server."""

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from privlens.data_io import LABEL, SPLIT, Dataset, Split, manifest_store, privacy_store
from privlens.features import Likelihood

L = Likelihood


def make_pfv(adult=L.VERY_UNLIKELY, racy=L.VERY_UNLIKELY, medical=L.VERY_UNLIKELY,
             spoofed=L.VERY_UNLIKELY, violent=L.VERY_UNLIKELY,
             people_prob=0.0, people_count=0, outdoor_prob=0.0):
    """One image's privacy cells, as `privacy_store` takes them."""
    return (adult, racy, medical, spoofed, violent, people_prob, people_count, outdoor_prob)


def manifest_cells(manifest):
    """A manifest store's cells as `manifest_store` takes them: id -> (label, split)."""
    labels, splits = ("public", "private"), [s.value for s in Split]
    return {
        image_id: ("" if empty[LABEL] else labels[int(code[LABEL])],
                   "" if empty[SPLIT] else splits[int(code[SPLIT])])
        for image_id, code, empty in zip(manifest.ids, manifest.values, manifest.missing)
    }


# The parsers of every store the store cache holds: the one parser of the
# tables, and the vote parser under the name `load_dataset` calls it by.
STORE_PARSERS = ["privlens.data_io._parse", "privlens.config.load_annotations"]


def never_parse(monkeypatch):
    """Makes any store parse raise, so a load must read its store from the cache."""
    def parse(*args, **kwargs):
        raise AssertionError(f"a store was parsed: {args}")
    for name in STORE_PARSERS:
        monkeypatch.setattr(name, parse)


@pytest.fixture
def tiny_dataset():
    """Four labeled images with privacy features, two annotated."""
    manifest = manifest_store({
        "a": ("public", "train"),
        "b": ("private", "train"),
        "c": ("public", "train"),
        "d": ("private", "test"),
    })
    features = {
        "a": make_pfv(people_count=0, outdoor_prob=0.9),
        "b": make_pfv(racy=L.POSSIBLE, people_prob=0.8, people_count=1, outdoor_prob=0.1),
        "c": make_pfv(people_prob=0.6, people_count=1, outdoor_prob=0.7),
        "d": make_pfv(adult=L.VERY_LIKELY, people_prob=0.9, people_count=2, outdoor_prob=0.2),
    }
    return Dataset(manifest, privacy_features=privacy_store(features))


def synth_features(rng: np.random.Generator, n: int):
    """Random draws of the eight features as raw numeric columns."""
    levels = rng.choice(5, size=(n, 5), p=[0.55, 0.2, 0.12, 0.08, 0.05])
    people_prob = rng.uniform(0, 1, n)
    people_count = rng.poisson(1.2, n)
    outdoor_prob = rng.uniform(0, 1, n)
    return levels, people_prob, people_count, outdoor_prob


def synth_label_rule(levels, people_prob, people_count, outdoor_prob):
    """Known linear rule over the encoded features; no noise."""
    enc = levels / 4.0
    score = (
        1.4 * enc[:, 0] + 1.2 * enc[:, 1] + 0.8 * enc[:, 2]
        + 0.6 * enc[:, 3] + 0.8 * enc[:, 4]
        + 0.7 * people_prob + 0.15 * np.minimum(people_count, 4)
        - 0.9 * outdoor_prob
    )
    # threshold near the score median keeps the classes roughly balanced
    return (score > 1.08).astype(float)


def write_synth_corpus(dirpath, n=200, seed=7, noise=0.0, splits=True):
    """Write manifest.csv + privacy_features.csv for a synthetic dataset."""
    rng = np.random.default_rng(seed)
    levels, people_prob, people_count, outdoor_prob = synth_features(rng, n)
    y = synth_label_rule(levels, people_prob, people_count, outdoor_prob)
    if noise:
        flip = rng.uniform(size=n) < noise
        y = np.where(flip, 1.0 - y, y)

    names = [f"img_{i:05d}" for i in range(n)]
    level_tokens = ["VERY_UNLIKELY", "UNLIKELY", "POSSIBLE", "LIKELY", "VERY_LIKELY"]
    split_of = lambda i: ("train" if i % 10 < 7 else "val" if i % 10 == 7 else "test")

    with open(dirpath / "manifest.csv", "w", encoding="utf-8") as fh:
        fh.write("image_id,label,split\n")
        for i, name in enumerate(names):
            label = "private" if y[i] == 1.0 else "public"
            fh.write(f"{name},{label},{split_of(i) if splits else ''}\n")
    with open(dirpath / "privacy_features.csv", "w", encoding="utf-8") as fh:
        fh.write("image_id,adult,racy,medical,spoofed,violent,"
                 "people_prob,people_count,outdoor_prob\n")
        for i, name in enumerate(names):
            cells = [level_tokens[k] for k in levels[i]]
            fh.write(f"{name},{','.join(cells)},{people_prob[i]:.6f},"
                     f"{people_count[i]},{outdoor_prob[i]:.6f}\n")
    return y


@pytest.fixture
def synth_corpus(tmp_path):
    write_synth_corpus(tmp_path, n=200, seed=7)
    return tmp_path


SAFE_SEARCH_OK = {
    "adult": "VERY_UNLIKELY", "racy": "POSSIBLE", "medical": "VERY_UNLIKELY",
    "spoof": "VERY_UNLIKELY", "violence": "UNLIKELY",
}


class MockSafeSearchHandler(BaseHTTPRequestHandler):
    """Counts requests and keeps the last one's headers and body. URIs
    containing 'limited' are permanently rate-limited, 'moved' ones get a 302
    to the server's `redirect_to`, 'broken' ones a 500 with an HTML body and
    'garbled' ones a 200 whose body is not JSON. A GET (a POST redirected by
    a client) is counted and answered with a 404."""

    def do_POST(self):
        self.server.calls += 1
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        self.server.last_headers, self.server.last_body = self.headers, raw
        uri = json.loads(raw)["image"]["source"]["uri"]
        if "limited" in uri:
            self.send_response(429)
            self.end_headers()
            return
        if "moved" in uri:
            self.send_response(302)
            self.send_header("Location", self.server.redirect_to)
            self.end_headers()
            return
        status, kind, payload = 200, "application/json", json.dumps(SAFE_SEARCH_OK).encode()
        if "broken" in uri:
            status, kind = 500, "text/html"
            payload = b"<html><body>Internal Server Error</body></html>"
        elif "garbled" in uri:
            payload = b"adult=VERY_UNLIKELY"
        self.send_response(status)
        self.send_header("Content-Type", kind)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        self.server.calls += 1
        self.server.last_headers, self.server.last_body = self.headers, b""
        self.send_response(404)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving_mock():
    """A running mock SafeSearch server on a free localhost port."""
    server = HTTPServer(("127.0.0.1", 0), MockSafeSearchHandler)
    server.calls, server.last_headers, server.redirect_to = 0, None, None
    # a short poll, so shutdown() does not wait out the default 0.5 s at teardown
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def mock_server():
    with serving_mock() as server:
        yield server
