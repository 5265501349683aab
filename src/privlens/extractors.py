"""Privacy-feature extraction from external evidence.

Three sources feed the eight features:
  - a SafeSearch-style HTTP service for the five sensitivity likelihoods,
  - a detections CSV (image_id,class_name,confidence) for people features,
  - a Places365-style scene store + indoor/outdoor map for the outdoor prob.

Batch extraction caches SafeSearch responses in segments, JSON files of up
to `_SEGMENT_ANSWERS` answers keyed by image id, and collects per-image
failures into a report instead of aborting. The calling thread reads the
cache and writes each segment; threads start only to query the images it
misses, so a warm re-run starts none.
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
from itertools import zip_longest
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .config import DataPaths
from .data_io import (MAX_PEOPLE_COUNT, FeatureStore, privacy_store, publish, read_lines,
                      read_table)
from .errors import (
    AuthError,
    ConfigError,
    ExtractionError,
    InvalidScene,
    MalformedResponse,
    ParseError,
    RateLimited,
    TransportError,
)
from .features import Likelihood, SENSITIVITY_CLASSES

log = logging.getLogger(__name__)

ENV_URL = "PRIVLENS_SAFESEARCH_URL"
ENV_KEY = "PRIVLENS_SAFESEARCH_KEY"

#: answers in one segment of the SafeSearch cache; the last segment of a run may hold fewer
_SEGMENT_ANSWERS = 100

#: response field -> our sensitivity class name
_RESPONSE_FIELDS = {
    "adult": "adult",
    "racy": "racy",
    "medical": "medical",
    "spoof": "spoofed",
    "violence": "violent",
}


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
    image_ids: list[str], detections: dict[str, list[tuple[str, float]]], conf_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per image: (count of person detections at/above threshold, max person
    confidence), 0 and 0.0 for an image without person detections.

    The probability deliberately ignores the threshold so weak evidence still
    reaches the classifier.
    """
    confs = [[conf for name, conf in detections.get(i, ()) if name == "person"]
             for i in image_ids]
    count = np.array([sum(c >= conf_threshold for c in cs) for cs in confs], dtype=np.float64)
    prob = np.array([max(cs, default=0.0) for cs in confs], dtype=np.float64)
    return count, prob


def outdoor_probability(scenes: FeatureStore, outdoor_columns: list[int]) -> np.ndarray:
    """Each scene row's mass on its outdoor columns, added column by column in
    ascending order as a loop over one row adds it; the store is not copied."""
    total = np.zeros(len(scenes))
    for j in outdoor_columns:
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
    api_key: str
    max_attempts: int
    backoff_base: float
    requests_per_second: float
    transport: object = None
    sleep: object = time.sleep

    def __post_init__(self):
        if self.transport is None:
            self.transport = self._requests_transport
        self._limiter = _RateLimiter(self.requests_per_second, sleep=self.sleep)

    @classmethod
    def from_env(cls, **kwargs) -> "SafeSearchClient | None":
        """The client of the configured endpoint; None when none is set,
        ConfigError when it is not an http(s) URL with a host, a valid port and
        no user info."""
        url = os.environ.get(ENV_URL)
        if not url:
            return None
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


def load_detections(path) -> dict[str, list[tuple[str, float]]]:
    """Each image's (class name, confidence) rows, a confidence in [0,1]."""
    def parse(line, image_id, row):
        try:
            confidence = float(row[2])
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=line) from exc
        if not 0.0 <= confidence <= 1.0:  # NaN fails it too
            raise ParseError(f"confidence out of [0,1]: {confidence}", path=path, line=line)
        return row[1].strip(), confidence
    return read_table(path, ["image_id", "class_name", "confidence"], parse, keyed=False)


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


def load_scenes(data: DataPaths, load_store) -> tuple[FeatureStore, list[int]]:
    """The scene store `load_store` parses from `data.scenes`, and the indices
    of its outdoor columns, ascending. Its columns are the category list
    (`data.categories`, else the io map's categories sorted); any disagreement
    is a ConfigError, and so is a missing io map, before the store is parsed."""
    if data.io_map is None:
        raise ConfigError("scenes configured without io_map")
    _, scenes, columns = load_store(data.scenes)
    io_map = load_io_map(data.io_map)
    if data.categories is not None:
        categories = load_categories(data.categories)
    else:
        categories = tuple(sorted(io_map))
    if scenes.values.shape[1] != len(categories):
        raise ConfigError(f"scene store {data.scenes} has {scenes.values.shape[1]} "
                          f"categories, the category list has {len(categories)}")
    unmapped = next((c for c in categories if c not in io_map), None)
    if unmapped is not None:
        raise ConfigError(f"category {unmapped!r} is missing from io map {data.io_map}")
    if set(columns) <= io_map.keys() and columns != list(categories):
        k, (name, expected) = next((k, pair) for k, pair in enumerate(
            zip_longest(columns, categories)) if pair[0] != pair[1])
        raise ConfigError(f"scene store {data.scenes} column {k + 1} is {name!r}, "
                          f"the category list has {expected!r}")
    return scenes, [j for j, name in enumerate(categories) if io_map[name] == "outdoor"]


@dataclass
class ExtractionSources:
    """Whatever evidence is available; any subset may be None."""

    person_conf_threshold: float
    safe_search: SafeSearchClient | None = None
    image_refs: dict[str, str] = field(default_factory=dict)  # image_id -> URI
    detections: dict[str, list[tuple[str, float]]] | None = None  # (class name, confidence)
    scenes: FeatureStore | None = None  # one row of category probs per image
    outdoor_columns: list[int] | None = None  # of `scenes`, from `load_scenes`


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


def _read_answers(cache_dir: Path, image_ids: list[str]) -> list:
    """Per image of `image_ids`: its cached SafeSearchResult, or None.

    Each segment (`answers-*.json`) in `cache_dir` is read whole, in name
    order, and only the wanted ids are decoded; an image's first valid answer
    wins. Any other file is ignored. An unreadable segment, and an entry that
    lacks a key or has a bad token, is one warning each, and its images are
    queried again.
    """
    wanted = set(image_ids)
    answers: dict[str, SafeSearchResult] = {}
    for name in sorted(os.listdir(cache_dir)):
        if not (name.startswith("answers-") and name.endswith(".json")):
            continue
        path = cache_dir / name
        try:
            segment = json.loads(path.read_bytes())
            if not isinstance(segment, dict):
                raise ValueError(f"expected a JSON object, got {type(segment).__name__}")
        except (OSError, ValueError) as exc:
            log.warning("ignoring unreadable cache segment %s: %s", path, exc)
            continue
        for image_id, entry in segment.items():
            if image_id in wanted and image_id not in answers:
                try:
                    answers[image_id] = SafeSearchResult.from_dict(entry)
                except (KeyError, TypeError) as exc:
                    log.warning("ignoring unreadable cache entry %r in %s: %s",
                                image_id, path, exc)
    return [answers.get(image_id) for image_id in image_ids]


def _write_segment(cache_dir: Path, answers: dict[str, dict]) -> None:
    """Publish `answers` (image id -> `SafeSearchResult.to_dict()`) as one
    segment, named by the sha256 of its bytes so that no two contents share
    a name. An OSError is one warning, and the next run queries those images
    again."""
    import hashlib  # imported here: it loads OpenSSL, and only extract writes the cache

    payload = json.dumps(answers, sort_keys=True)
    path = cache_dir / f"answers-{hashlib.sha256(payload.encode('ascii')).hexdigest()}.json"
    try:
        publish(path, lambda fh: fh.write(payload))
    except OSError as exc:
        log.warning("cannot write cache segment %s: %s", path, exc)


def run_extraction(
    image_ids: list[str],
    sources: ExtractionSources,
    cache_dir,
    workers: int,
) -> tuple[FeatureStore, ExtractionReport]:
    """The privacy store of the manifest's `image_ids`, and its report;
    idempotent under re-run. Nothing but the cache segments is written.

    The people and outdoor columns, and which scene rows are valid, are
    computed once for the batch. The calling thread reads the cache
    (`_read_answers`); only the misses (no answer or an unreadable one, with
    a client configured) go to at most `workers` threads, which only query
    SafeSearch, so a warm re-run starts none. The calling thread takes the
    answers in manifest order and writes them in segments of
    `_SEGMENT_ANSWERS`, so the cache files do not depend on `workers`. An
    interrupt (a BaseException not an Exception, here or in a query) at once
    drops the queries not yet started, waits for the running ones
    and writes every answer received before it propagates. Any exception
    from an image's query, scene check or people-count bound fails only
    that image: it lands in the report as "<Type>: <message>", a failed
    query over a bad scene row over a count past the bound. Successful rows
    are still in the store, in manifest order, so re-runs with identical
    upstream responses produce identical stores.
    """
    cache = Path(cache_dir)
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
            sources.scenes, sources.outdoor_columns)[rows[has_row]]
        bad_scene[has_row] = invalid[rows[has_row]]

    # per image: its SafeSearchResult, None, or the exception that failed it
    found = _read_answers(cache, image_ids)
    misses = [k for k, answer in enumerate(found)
              if answer is None and sources.safe_search is not None]
    if misses:
        pending: dict[str, dict] = {}  # answers not yet in a segment
        taken = 0  # misses whose answer the loop below has taken
        with ThreadPoolExecutor(max_workers=min(max(1, workers), len(misses))) as pool:
            fetches = [pool.submit(sources.safe_search.annotate,
                                   sources.image_refs.get(image_ids[k], image_ids[k]))
                       for k in misses]
            def drop_queued(done):  # at once, in the thread that ended `done`
                if not (done.cancelled() or isinstance(done.exception(), (Exception, type(None)))):
                    pool.shutdown(wait=False, cancel_futures=True)
            for fetch in fetches:
                fetch.add_done_callback(drop_queued)
            try:
                for k, fetch in zip(misses, fetches):
                    try:
                        found[k] = fetch.result()
                    except Exception as exc:
                        found[k] = exc
                    else:
                        pending[image_ids[k]] = found[k].to_dict()
                        if len(pending) == _SEGMENT_ANSWERS:
                            _write_segment(cache, pending)
                            pending = {}
                    taken += 1
            except BaseException:
                # without this, leaving the pool would first run every queued query
                pool.shutdown(cancel_futures=True)
                for k, fetch in zip(misses[taken:], fetches[taken:]):
                    if not fetch.cancelled() and fetch.exception() is None:
                        pending[image_ids[k]] = fetch.result().to_dict()
                raise
            finally:
                if pending:
                    _write_segment(cache, pending)
        del fetches  # the finished futures hold megabytes that building the store can reuse

    cells: dict[str, tuple] = {}
    for k, (image_id, sensitivity) in enumerate(zip(image_ids, found)):
        if not isinstance(sensitivity, Exception):  # a failed lookup wins
            if bad_scene[k]:
                sensitivity = InvalidScene("scene probabilities must be non-negative and sum to 1")
            elif count[k] > MAX_PEOPLE_COUNT:  # a row the privacy-store loader would reject
                sensitivity = ExtractionError(f"people_count above {MAX_PEOPLE_COUNT}: "
                                              f"{int(count[k])}")
        if isinstance(sensitivity, Exception):
            log.debug("image %s failed", image_id, exc_info=sensitivity)
            report.failures[image_id] = f"{type(sensitivity).__name__}: {sensitivity}"
            continue
        levels = [getattr(sensitivity, c, None) for c in SENSITIVITY_CLASSES]
        cells[image_id] = (*levels, prob[k], count[k], outdoor[k])

    store = privacy_store(cells)
    report.n_complete = len(store)
    report.imputed = {i: [c for c, m in zip(SENSITIVITY_CLASSES, miss) if m]
                      for i, miss in zip(store.ids, store.missing.tolist()) if any(miss)}
    return store, report
