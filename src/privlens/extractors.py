"""Privacy-feature extraction from external evidence.

Three sources feed the eight features:
  - a SafeSearch-style HTTP service for the five sensitivity likelihoods,
  - a detections CSV (image_id,class_name,confidence) for people features,
  - a Places365-style scene store + indoor/outdoor map for the outdoor prob.

Batch extraction caches SafeSearch responses as one JSON file per image,
named by a hash of the image id, and collects per-image failures into a
report instead of aborting. The calling thread reads the cache; threads
start only to query the images it misses, so a warm re-run starts none.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .data_io import (FeatureStore, privacy_store, publish, read_lines, read_table,
                      write_privacy_store)
from .errors import (
    AuthError,
    ConfigError,
    InvalidScene,
    MalformedResponse,
    ParseError,
    RateLimited,
    TransportError,
    UnmappedCategory,
)
from .features import Likelihood, SENSITIVITY_CLASSES

log = logging.getLogger(__name__)

ENV_URL = "PRIVLENS_SAFESEARCH_URL"
ENV_KEY = "PRIVLENS_SAFESEARCH_KEY"

#: response field -> our sensitivity class name
_RESPONSE_FIELDS = {
    "adult": "adult",
    "racy": "racy",
    "medical": "medical",
    "spoof": "spoofed",
    "violence": "violent",
}


@dataclass(frozen=True)
class Detection:
    class_name: str
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of [0,1]: {self.confidence}")


@dataclass(frozen=True)
class SafeSearchResult:
    """Five likelihoods; None marks an Unknown the service could not rate."""

    adult: Likelihood | None
    racy: Likelihood | None
    medical: Likelihood | None
    spoofed: Likelihood | None
    violent: Likelihood | None

    def to_dict(self) -> dict:
        return {c: (getattr(self, c).name if getattr(self, c) is not None else None)
                for c in SENSITIVITY_CLASSES}

    @classmethod
    def from_dict(cls, d: dict) -> "SafeSearchResult":
        return cls(**{
            c: (Likelihood[d[c]] if d[c] is not None else None)
            for c in SENSITIVITY_CLASSES
        })


def people_features(
    image_ids: list[str], detections: dict[str, list[Detection]], conf_threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Per image: (count of person detections at/above threshold, max person
    confidence), 0 and 0.0 for an image without person detections.

    The probability deliberately ignores the threshold so weak evidence still
    reaches the classifier.
    """
    confs = [[d.confidence for d in detections.get(i, ()) if d.class_name == "person"]
             for i in image_ids]
    count = np.array([sum(c >= conf_threshold for c in cs) for cs in confs], dtype=np.float64)
    prob = np.array([max(cs, default=0.0) for cs in confs], dtype=np.float64)
    return count, prob


def outdoor_probability(
    scenes: FeatureStore, categories: tuple[str, ...], io_map: dict[str, str]
) -> np.ndarray:
    """Each scene row's mass on categories mapped to 'outdoor', added column by
    column in category order as a loop over one row adds it; the store is not copied."""
    total = np.zeros(len(scenes))
    for j, name in enumerate(categories):
        try:
            side = io_map[name]
        except KeyError:
            raise UnmappedCategory(name)
        if side == "outdoor":
            total += scenes.values[:, j]
    return total


class _RateLimiter:
    """Fixed-interval scheduler: each acquisition gets the next slot `1/rate`
    seconds after the previous one, waiting until it comes, so at most `rate`
    acquisitions start per second and none come in bursts."""

    def __init__(self, rate: float, sleep=time.sleep):
        self.interval = 1.0 / rate if rate > 0 else 0.0
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_free = 0.0

    def acquire(self):
        if self.interval == 0.0:
            return
        with self._lock:
            now = time.monotonic()
            wait = self._next_free - now
            self._next_free = max(now, self._next_free) + self.interval
        if wait > 0:
            self._sleep(wait)


@cache
def _opener():
    """urllib's default opener, except that a 3xx answer is returned as it
    stands, so the bearer key never follows a redirect to another host."""
    import urllib.request  # imported here: only extract talks HTTP

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None

    return urllib.request.build_opener(NoRedirect)


@dataclass
class SafeSearchClient:
    """HTTP client with client-side rate limiting and exponential backoff.

    `transport` is a callable (url, headers, json_body) -> (status, parsed_json)
    so tests can count calls without a live server; the default makes one
    standard-library POST per attempt.
    """

    url: str
    api_key: str = ""
    max_attempts: int = 5
    backoff_base: float = 1.0
    requests_per_second: float = 5.0
    transport: object = None
    sleep: object = time.sleep

    def __post_init__(self):
        if self.transport is None:
            self.transport = self._requests_transport
        self._limiter = _RateLimiter(self.requests_per_second, sleep=self.sleep)

    @classmethod
    def from_env(cls, **kwargs) -> "SafeSearchClient":
        """The client of the configured endpoint; ValueError when none is set,
        ConfigError when it is not an http(s) URL with a host, a valid port and
        no user info."""
        url = os.environ.get(ENV_URL)
        if not url:
            raise ValueError(f"{ENV_URL} not set")
        try:
            parts = urlsplit(url)
            parts.port  # ValueError unless absent or a number in 0-65535
        except ValueError:
            parts = None
        if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
                or parts.username is not None):  # urllib cannot send user info as auth
            raise ConfigError(f"{ENV_URL} must be an http or https URL with a host "
                              f"and no user info, got {url!r}")
        return cls(url=url, api_key=os.environ.get(ENV_KEY, ""), **kwargs)

    def _requests_transport(self, url, headers, body):
        """One standard-library POST on a connection closed after the answer;
        a redirect is not followed. The name is the one the traced benchmark
        wraps."""
        import http.client  # imported here: only extract talks HTTP
        import urllib.error
        import urllib.request

        try:
            request = urllib.request.Request(url, json.dumps(body, allow_nan=False).encode(),
                                             {"Content-Type": "application/json", **headers})
            try:
                resp = _opener().open(request, timeout=30)
            except urllib.error.HTTPError as exc:  # a non-2xx answer, read as a 2xx one is
                resp = exc
            with resp:
                status, raw = resp.status, resp.read()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            return status, json.loads(raw)
        except ValueError:
            return status, None

    def annotate(self, image_ref: str) -> SafeSearchResult:
        """One SafeSearch request with retries; raises on permanent failure."""
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        body = {"image": {"source": {"uri": image_ref}}}
        last_error = None
        for attempt in range(self.max_attempts):
            self._limiter.acquire()
            status, payload = self.transport(self.url, headers, body)
            if status in (401, 403):
                raise AuthError(f"HTTP {status} from SafeSearch endpoint")
            if status == 429:
                last_error = RateLimited("HTTP 429 from SafeSearch endpoint")
                if attempt + 1 < self.max_attempts:
                    self.sleep(self.backoff_base * (2 ** attempt))
                continue
            if status != 200:
                raise TransportError(f"HTTP {status} from SafeSearch endpoint")
            return _parse_safe_search(payload)
        raise last_error if last_error else TransportError("no attempts made")


def _parse_safe_search(payload) -> SafeSearchResult:
    if not isinstance(payload, dict):
        raise MalformedResponse(f"expected JSON object, got {type(payload).__name__}")
    values = {}
    for resp_field, class_name in _RESPONSE_FIELDS.items():
        if resp_field not in payload:
            raise MalformedResponse(f"response missing field {resp_field!r}")
        token = str(payload[resp_field]).upper()
        if token == "UNKNOWN":
            values[class_name] = None
        else:
            try:
                values[class_name] = Likelihood[token]
            except KeyError:
                raise MalformedResponse(f"bad likelihood token {token!r}")
    return SafeSearchResult(**values)


def load_detections(path) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    for line, image_id, row in read_table(path, ["image_id", "class_name", "confidence"],
                                          keyed=False):
        try:
            det = Detection(class_name=row[1].strip(), confidence=float(row[2]))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=line) from exc
        out.setdefault(image_id, []).append(det)
    return out


def load_io_map(path) -> dict[str, str]:
    """Lines of `category,indoor|outdoor`; blank lines and `#` comments are skipped."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2 or parts[1].strip() not in ("indoor", "outdoor"):
            raise ParseError(f"bad io_map line {line!r}", path=path, line=lineno)
        out[parts[0].strip()] = parts[1].strip()
    return out


def load_categories(path) -> tuple[str, ...]:
    return tuple(line.strip() for line in read_lines(path) if line.strip())


@dataclass
class ExtractionSources:
    """Whatever evidence is available; any subset may be None."""

    safe_search: SafeSearchClient | None = None
    image_refs: dict[str, str] = field(default_factory=dict)  # image_id -> URI
    detections: dict[str, list[Detection]] | None = None
    scenes: FeatureStore | None = None  # one row of category probs per image
    categories: tuple[str, ...] | None = None
    io_map: dict[str, str] | None = None
    person_conf_threshold: float = 0.5


@dataclass
class ExtractionReport:
    n_images: int = 0
    n_complete: int = 0
    failures: dict[str, str] = field(default_factory=dict)
    imputed: dict[str, list[str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_images": self.n_images,
            "n_complete": self.n_complete,
            "failures": dict(sorted(self.failures.items())),
            "imputed": {k: sorted(v) for k, v in sorted(self.imputed.items())},
        }


def _cache_path(cache_dir: Path, image_id: str) -> Path:
    """The entry of one image: the id's hash, so any id names a file in `cache_dir`."""
    import hashlib  # imported here: it loads OpenSSL, and only extract reads the cache

    return cache_dir / f"{hashlib.sha256(image_id.encode('utf-8')).hexdigest()}.json"


def _read_cache(path: Path) -> SafeSearchResult | None:
    """The cached response; None when absent or unreadable, so it is queried again."""
    try:
        return SafeSearchResult.from_dict(json.loads(path.read_text("utf-8")))
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        log.warning("ignoring unreadable cache entry %s: %s", path, exc)
        return None


def _fetch(
    image_id: str, sources: ExtractionSources, cache_dir: Path | None
) -> SafeSearchResult:
    """Query SafeSearch about one image and, with a cache, store the answer."""
    result = sources.safe_search.annotate(sources.image_refs.get(image_id, image_id))
    if cache_dir is not None:
        payload = json.dumps(result.to_dict(), sort_keys=True)
        publish(_cache_path(cache_dir, image_id), lambda fh: fh.write(payload))
    return result


def run_extraction(
    image_ids: list[str],
    sources: ExtractionSources,
    cache_dir,
    out_path,
    workers: int = 4,
) -> ExtractionReport:
    """Produce privacy_features.csv for the manifest's `image_ids`; idempotent under re-run.

    The people and outdoor columns, and which scene rows are valid, are
    computed once for the batch. The calling thread reads each image's cache
    entry; only the misses (no entry or an unreadable one, with a client
    configured) go to at most `workers` threads, which query SafeSearch and
    write the entry, so a warm re-run starts none. Any exception from an
    image's cache read, query or scene check fails only that image: it lands
    in the report as "<Type>: <message>", a failed query over a bad scene
    row. Successful rows are still written, in manifest order, so re-runs
    with identical upstream responses produce byte-identical files.
    """
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(exist_ok=True)
    report = ExtractionReport(n_images=len(image_ids))

    count, prob = people_features(image_ids, sources.detections or {},
                                  sources.person_conf_threshold)
    outdoor, bad_scene = np.zeros(len(image_ids)), np.zeros(len(image_ids), dtype=bool)
    if sources.scenes is not None:
        # C-contiguous, so each row sums as it would alone; a loaded store is not copied
        values = np.ascontiguousarray(sources.scenes.values)
        invalid = (values < 0).any(axis=1) | (np.abs(values.sum(axis=1) - 1.0) > 1e-6)
        rows = sources.scenes.rows(image_ids)
        has_row = rows >= 0
        outdoor[has_row] = outdoor_probability(
            sources.scenes, sources.categories, sources.io_map)[rows[has_row]]
        bad_scene[has_row] = invalid[rows[has_row]]

    # per image: its SafeSearchResult, None, or the exception that failed it
    found: list = [None] * len(image_ids)
    misses: list[int] = []
    for k, image_id in enumerate(image_ids):
        if cache is not None:
            try:
                found[k] = _read_cache(_cache_path(cache, image_id))
            except Exception as exc:
                found[k] = exc
                continue
        if found[k] is None and sources.safe_search is not None:
            misses.append(k)
    if misses:
        with ThreadPoolExecutor(max_workers=min(max(1, workers), len(misses))) as pool:
            fetches = [pool.submit(_fetch, image_ids[k], sources, cache) for k in misses]
            for k, fetch in zip(misses, fetches):
                try:
                    found[k] = fetch.result()
                except Exception as exc:
                    found[k] = exc
        del fetches  # the finished futures hold megabytes that building the store can reuse

    cells: dict[str, tuple] = {}
    for k, (image_id, sensitivity) in enumerate(zip(image_ids, found)):
        if bad_scene[k] and not isinstance(sensitivity, Exception):  # a failed lookup wins
            sensitivity = InvalidScene("scene probabilities must be non-negative and sum to 1")
        if isinstance(sensitivity, Exception):
            log.debug("image %s failed", image_id, exc_info=sensitivity)
            report.failures[image_id] = f"{type(sensitivity).__name__}: {sensitivity}"
            continue
        levels = [getattr(sensitivity, c, None) for c in SENSITIVITY_CLASSES]
        cells[image_id] = (*levels, prob[k], count[k], outdoor[k])

    store = privacy_store(cells)
    write_privacy_store(out_path, store)
    report.n_complete = len(store)
    report.imputed = {i: [c for c, m in zip(SENSITIVITY_CLASSES, miss) if m]
                      for i, miss in zip(store.ids, store.missing.tolist()) if any(miss)}
    return report
