import hashlib
import json
import logging
import os
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import frozen_extraction
from conftest import serving_mock
from privlens.config import MAX_ATTEMPTS, MAX_BACKOFF_BASE, DataPaths
from privlens.data_io import (MAX_PEOPLE_COUNT, FeatureStore, load_deep_store, load_privacy_store,
                             write_privacy_store)
from privlens.errors import (
    AuthError,
    ConfigError,
    MalformedResponse,
    RateLimited,
    TransportError,
)
from privlens.extractors import (
    ExtractionSources,
    SafeSearchClient,
    SafeSearchResult,
    _SEGMENT_ANSWERS,
    _read_answers,
    load_detections,
    load_io_map,
    load_scenes,
    outdoor_probability,
    people_features,
    run_extraction,
)
from privlens.features import SENSITIVITY_CLASSES, Likelihood

L = Likelihood

OK_RESPONSE = {
    "adult": "VERY_UNLIKELY", "racy": "POSSIBLE", "medical": "VERY_UNLIKELY",
    "spoof": "VERY_UNLIKELY", "violence": "UNLIKELY",
}


def people_of(detections, threshold=0.5):
    """(count, prob) of one image with these detections, from the batch function."""
    count, prob = people_features(["a"], {"a": detections}, threshold)
    return int(count[0]), float(prob[0])


class TestPeopleFeatures:
    def test_empty(self):
        assert people_of([]) == (0, 0.0)
        count, prob = people_features(["a", "b"], {}, 0.5)
        assert count.tolist() == [0, 0] and prob.tolist() == [0.0, 0.0]

    def test_threshold_applies_to_count_only(self):
        dets = [("person", 0.9), ("person", 0.7), ("dog", 0.95)]
        assert people_of(dets, 0.5) == (2, 0.9)

    def test_weak_person_counts_zero_but_keeps_prob(self):
        assert people_of([("person", 0.3)], 0.5) == (0, 0.3)

    @given(st.lists(st.tuples(st.sampled_from(["person", "dog", "car"]),
                              st.floats(0, 1)), max_size=12),
           st.floats(0, 1))
    def test_permutation_invariant(self, dets, threshold):
        forward = people_of(dets, threshold)
        assert people_of(list(reversed(dets)), threshold) == forward


def outdoor_of(probs, outdoor_columns):
    """The outdoor mass of one scene row, from the batch function."""
    return outdoor_probability(FeatureStore(["a"], np.array([probs])), outdoor_columns)[0]


class TestOutdoorProbability:
    def test_all_mass_outdoor(self):
        assert outdoor_of([1.0, 0.0], [0]) == 1.0

    def test_uniform_split(self):
        assert outdoor_of([0.5, 0.5], [0]) == 0.5

    def test_hand_summed(self):
        assert outdoor_of([0.7, 0.2, 0.1], [1, 2]) == pytest.approx(0.3)

    def test_complement_of_indoor_mass(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(10))
        out = outdoor_of(probs, [j for j in range(10) if j % 3])
        assert out == pytest.approx(1.0 - sum(probs[j] for j in range(10) if not j % 3))
        assert 0.0 <= out <= 1.0


def scene_files(tmp_path, header="beach,kitchen", io_map="beach,outdoor\nkitchen,indoor\n",
                categories=None):
    """The `[data]` paths of a one-row scene store, its io map and, when
    given, a category list."""
    (tmp_path / "scenes.csv").write_text(f"#source_tag=places,dim=2\nimage_id,{header}\n"
                                         "a,0.25,0.75\n")
    (tmp_path / "io_map.txt").write_text(io_map)
    if categories is not None:
        (tmp_path / "categories.txt").write_text(categories)
    return DataPaths(manifest=tmp_path / "manifest.csv", scenes=tmp_path / "scenes.csv",
                     io_map=tmp_path / "io_map.txt",
                     categories=tmp_path / "categories.txt" if categories is not None else None)


class TestLoadScenes:
    """Which scene columns are outdoor; `TestExtract` in test_cli.py covers
    the other scene rules through the command."""

    def test_outdoor_columns_in_category_order(self, tmp_path):
        scenes, columns = load_scenes(scene_files(tmp_path, header="v0,v1"), load_deep_store)
        assert scenes.ids == ["a"] and columns == [0]
        data = scene_files(tmp_path, header="cave,beach",
                           io_map="beach,outdoor\ncave,indoor\n", categories="cave\nbeach\n")
        assert load_scenes(data, load_deep_store)[1] == [1]

    def test_unmapped_category(self, tmp_path):
        data = scene_files(tmp_path, header="v0,v1", categories="beach\nmystery\n")
        with pytest.raises(ConfigError, match="category 'mystery' is missing from io map"):
            load_scenes(data, load_deep_store)


class CountingTransport:
    """Fake transport with a scripted status sequence per URI."""

    def __init__(self, script=None, payload=None):
        self.calls = 0
        self.script = script or []
        self.payload = payload if payload is not None else OK_RESPONSE

    def __call__(self, url, headers, body):
        self.calls += 1
        if self.script:
            status = self.script.pop(0)
        else:
            status = 200
        return status, (self.payload if status == 200 else {"error": status})


CLIENT_SETTINGS = {"api_key": "", "max_attempts": 5, "backoff_base": 0.0,
                   "requests_per_second": 5.0, "sleep": lambda s: None}


def make_client(transport, **kwargs):
    """A client on a fake transport that never waits."""
    return SafeSearchClient(url="http://fake", transport=transport, **CLIENT_SETTINGS | kwargs)


class TestSafeSearchClient:
    def test_parses_all_five_fields(self):
        client = make_client(CountingTransport())
        result = client.annotate("img.jpg")
        assert result == SafeSearchResult(
            adult=L.VERY_UNLIKELY, racy=L.POSSIBLE, medical=L.VERY_UNLIKELY,
            spoofed=L.VERY_UNLIKELY, violent=L.UNLIKELY,
        )

    def test_unknown_token_becomes_none(self):
        payload = dict(OK_RESPONSE, racy="UNKNOWN")
        client = make_client(CountingTransport(payload=payload))
        assert client.annotate("x").racy is None

    def test_retries_on_429_then_succeeds(self):
        transport = CountingTransport(script=[429, 429, 429, 200])
        client = make_client(transport)
        assert client.annotate("x").adult is L.VERY_UNLIKELY
        assert transport.calls == 4

    @pytest.mark.parametrize("max_attempts, backoff_base", [
        (5, 0.0), (MAX_ATTEMPTS, MAX_BACKOFF_BASE)], ids=["no wait", "at the bounds"])
    def test_gives_up_after_max_attempts(self, max_attempts, backoff_base):
        transport = CountingTransport(script=[429] * (max_attempts + 5))
        waits = []
        client = make_client(transport, max_attempts=max_attempts, backoff_base=backoff_base,
                             requests_per_second=0.0, sleep=waits.append)
        with pytest.raises(RateLimited):
            client.annotate("x")
        assert transport.calls == max_attempts  # never more than the configured cap
        # the longest single wait, as README states it
        assert max(waits) == backoff_base * 2 ** (max_attempts - 2)

    def test_auth_errors_not_retried(self):
        transport = CountingTransport(script=[403])
        client = make_client(transport)
        with pytest.raises(AuthError):
            client.annotate("x")
        assert transport.calls == 1

    def test_missing_field_is_malformed(self):
        payload = {k: v for k, v in OK_RESPONSE.items() if k != "racy"}
        client = make_client(CountingTransport(payload=payload))
        with pytest.raises(MalformedResponse):
            client.annotate("x")

    def test_http_500_is_transport_error(self):
        client = make_client(CountingTransport(script=[500]))
        with pytest.raises(TransportError):
            client.annotate("x")

    @pytest.mark.parametrize("url", [None, ""], ids=["unset", "empty"])
    def test_from_env_without_an_endpoint_is_none(self, monkeypatch, url):
        if url is None:
            monkeypatch.delenv("PRIVLENS_SAFESEARCH_URL", raising=False)
        else:
            monkeypatch.setenv("PRIVLENS_SAFESEARCH_URL", url)
        assert SafeSearchClient.from_env(max_attempts=2) is None

    def test_from_env_reads_the_endpoint_and_key(self, monkeypatch):
        monkeypatch.setenv("PRIVLENS_SAFESEARCH_URL", "http://127.0.0.1:8080/annotate")
        monkeypatch.setenv("PRIVLENS_SAFESEARCH_KEY", "k")
        client = SafeSearchClient.from_env(max_attempts=2, backoff_base=1.0,
                                           requests_per_second=5.0)
        assert (client.url, client.api_key, client.max_attempts) == (
            "http://127.0.0.1:8080/annotate", "k", 2)


class TestFileLoaders:
    def test_detections(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("image_id,class_name,confidence\na,person,0.9\na,dog,0.5\nb,person,0.2\n")
        assert load_detections(path) == {"a": [("person", 0.9), ("dog", 0.5)],
                                         "b": [("person", 0.2)]}

    def test_io_map(self, tmp_path):
        path = tmp_path / "io.txt"
        path.write_text("beach,outdoor\nkitchen,indoor\n")
        assert load_io_map(path) == {"beach": "outdoor", "kitchen": "indoor"}


def make_ids(n):
    return [f"img_{i}" for i in range(n)]


def segments(cache):
    """The segment files of `cache`, in name order."""
    return sorted(cache.glob("answers-*.json"))


def csv_bytes(store, path) -> bytes:
    """The bytes of `store` written at `path` as `extract` writes privacy_features.csv."""
    write_privacy_store(path, store)
    return path.read_bytes()


class TestRunExtraction:
    def sources(self, transport=None):
        detections = {"img_0": [("person", 0.9)], "img_1": []}
        scenes = FeatureStore(["img_0", "img_1"], np.array([[0.8, 0.2], [0.5, 0.5]]))
        client = make_client(transport) if transport is not None else None
        return ExtractionSources(
            person_conf_threshold=0.5,
            safe_search=client,
            detections=detections,
            scenes=scenes,
            outdoor_columns=[0],
        )

    def test_happy_path_two_rows(self, tmp_path):
        transport = CountingTransport()
        store, report = run_extraction(make_ids(2), self.sources(transport),
                                       tmp_path / "cache", workers=2)
        assert report.n_complete == 2 and not report.failures
        assert os.listdir(tmp_path) == ["cache"]  # the segments are all it writes
        lines = csv_bytes(store, tmp_path / "out.csv").decode().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("img_0,VERY_UNLIKELY,POSSIBLE")
        assert lines[1].endswith("0.900000,1,0.800000")

    def test_warm_cache_issues_zero_calls(self, tmp_path):
        transport = CountingTransport()
        store, _ = run_extraction(make_ids(2), self.sources(transport), tmp_path / "cache",
                                  workers=4)
        first_calls = transport.calls
        assert first_calls == 2
        out1 = csv_bytes(store, tmp_path / "out1.csv")
        store, _ = run_extraction(make_ids(2), self.sources(transport), tmp_path / "cache",
                                  workers=4)
        assert transport.calls == first_calls  # zero new HTTP calls
        assert csv_bytes(store, tmp_path / "out2.csv") == out1  # byte-identical

    def test_only_the_misses_go_to_at_most_that_many_threads(self, tmp_path, monkeypatch):
        ids = make_ids(6)
        cache, out = tmp_path / "cache", tmp_path / "out.csv"
        first = csv_bytes(run_extraction(ids, self.sources(CountingTransport()), cache,
                                         workers=4)[0], out)
        (segment,) = segments(cache)
        answers = json.loads(segment.read_text())
        del answers["img_1"]
        answers["img_4"] = {"adult": "LIK"}
        segment.write_text(json.dumps(answers))
        pools, asked = [], []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        def transport(url, headers, body):
            asked.append((body["image"]["source"]["uri"], threading.get_ident()))
            return 200, OK_RESPONSE

        monkeypatch.setattr("privlens.extractors.ThreadPoolExecutor", RecordingPool)
        store, report = run_extraction(ids, self.sources(transport), cache, workers=4)
        assert not report.failures and csv_bytes(store, out) == first
        assert sorted(uri for uri, _ in asked) == ["img_1", "img_4"]
        assert pools == [2] and len({thread for _, thread in asked}) <= 2
        assert threading.get_ident() not in {thread for _, thread in asked}

    def test_answers_go_to_segments_of_the_set_size_in_manifest_order(self, tmp_path):
        # one image in seven fails; the others fill segments in manifest order
        n = 2 * _SEGMENT_ANSWERS + 30
        failing = {f"img_{i}" for i in range(0, n, 7)}

        def transport(url, headers, body):
            return (500, None) if body["image"]["source"]["uri"] in failing else (200, OK_RESPONSE)

        cache = tmp_path / "cache"
        _, report = run_extraction(make_ids(n), self.sources(transport), cache, workers=3)
        assert sorted(report.failures) == sorted(failing)
        answered = [i for i in make_ids(n) if i not in failing]
        written = [json.loads(p.read_bytes()) for p in segments(cache)]
        assert sorted(map(sorted, written)) == sorted(
            sorted(answered[j:j + _SEGMENT_ANSWERS])
            for j in range(0, len(answered), _SEGMENT_ANSWERS))
        assert os.listdir(cache) == [p.name for p in segments(cache)]

    def test_segment_that_cannot_be_written_is_one_warning(self, tmp_path, caplog):
        # a directory at the temporary name publish writes the segment to
        cache = tmp_path / "cache"
        cache.mkdir()
        result = make_client(CountingTransport()).annotate("img_0")
        payload = json.dumps({i: result.to_dict() for i in make_ids(2)}, sort_keys=True)
        segment = cache / f"answers-{hashlib.sha256(payload.encode()).hexdigest()}.json"
        segment.with_name(f"{segment.name}.{os.getpid()}.tmp").mkdir()
        transport = CountingTransport()
        _, report = run_extraction(make_ids(2), self.sources(transport), cache, workers=2)
        assert report.n_complete == 2 and not report.failures
        (warning,) = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warning.startswith(f"cannot write cache segment {segment}: ")
        run_extraction(make_ids(2), self.sources(transport), cache, workers=2)
        assert transport.calls == 4  # nothing was cached, so both are asked again

    def test_interrupt_keeps_every_answer_and_runs_no_queued_query(self, tmp_path):
        class InterruptedOnThirdCall(CountingTransport):
            def __init__(self):
                super().__init__()
                self.lock, self.answered = threading.Lock(), []

            def __call__(self, url, headers, body):
                with self.lock:
                    self.calls += 1
                    call = self.calls
                if call == 3:
                    raise KeyboardInterrupt
                # an answer takes long enough for the interrupt to be seen before the
                # running queries end
                time.sleep(0.05)
                with self.lock:
                    self.answered.append(body["image"]["source"]["uri"])
                return 200, OK_RESPONSE

        workers, ids, cache = 2, make_ids(50), tmp_path / "cache"
        transport = InterruptedOnThirdCall()
        with pytest.raises(KeyboardInterrupt):
            run_extraction(ids, self.sources(transport), cache, workers=workers)
        assert transport.calls <= 3 + workers
        cached = _read_answers(cache, ids)
        assert sorted(i for i, answer in zip(ids, cached) if answer is not None) == sorted(
            transport.answered)
        rerun = CountingTransport()
        _, report = run_extraction(ids, self.sources(rerun), cache, workers=workers)
        assert not report.failures and rerun.calls == len(ids) - len(transport.answered)

    def test_permanent_failure_isolated(self, tmp_path):
        class FailSecond(CountingTransport):
            def __call__(self, url, headers, body):
                self.calls += 1
                uri = body["image"]["source"]["uri"]
                if uri == "img_1":
                    return 429, {}
                return 200, OK_RESPONSE

        store, report = run_extraction(make_ids(3), self.sources(FailSecond()),
                                       tmp_path / "cache", workers=4)
        assert report.n_complete == 2
        assert list(report.failures) == ["img_1"]
        assert "RateLimited" in report.failures["img_1"]
        lines = csv_bytes(store, tmp_path / "out.csv").decode().strip().splitlines()
        assert len(lines) == 3  # header + 2 surviving rows

    def test_people_count_past_the_bound_fails_only_its_image(self, tmp_path):
        sources = self.sources(CountingTransport())
        sources.detections["img_1"] = [("person", 0.9)] * (MAX_PEOPLE_COUNT + 1)
        _, report = run_extraction(make_ids(2), sources, tmp_path / "cache", workers=4)
        assert report.failures == {
            "img_1": f"ExtractionError: people_count above {MAX_PEOPLE_COUNT}: "
                     f"{MAX_PEOPLE_COUNT + 1}"}
        assert report.n_complete == 1
        sources.detections["img_1"].pop()  # at the bound the row is written, and loads
        store, report = run_extraction(make_ids(2), sources, tmp_path / "cache", workers=4)
        assert not report.failures
        csv_bytes(store, tmp_path / "out.csv")
        assert load_privacy_store(tmp_path / "out.csv").values[1, 6] == MAX_PEOPLE_COUNT

    def test_missing_sensitivity_flagged(self, tmp_path):
        sources = self.sources(transport=None)  # no safe-search source
        store, report = run_extraction(make_ids(2), sources, tmp_path / "cache", workers=4)
        assert report.n_complete == 2
        assert set(report.imputed["img_0"]) == {
            "adult", "racy", "medical", "spoofed", "violent"}
        line = csv_bytes(store, tmp_path / "out.csv").decode().splitlines()[1]
        assert line.startswith("img_0,,,,,")



LEVEL_TOKENS = [lvl.name for lvl in Likelihood] + ["UNKNOWN"]


def scene_row(draw, rng, k):
    """One scene row of `k` categories: a distribution at full precision or
    at 6 decimals (which may miss the 1e-6 sum check), with -0.0 cells, or
    with a negative cell whose mass moves to another, so the sum holds."""
    row = rng.dirichlet(np.full(k, draw(st.sampled_from([0.2, 1.0, 5.0]))))
    kind = draw(st.sampled_from(["full", "6dp", "-0.0", "negative"]))
    if kind == "6dp":
        row = np.array([float(f"{p:.6f}") for p in row])
    elif kind == "-0.0":
        zeros = rng.random(k) < 0.3
        row[zeros] = 0.0
        if row.sum() > 0:
            row = row / row.sum()
        row[zeros] = -0.0
    elif kind == "negative":
        j, x = rng.integers(k), draw(st.sampled_from([1e-9, 1e-3, 0.5]))
        row[(j + 1) % k] += row[j] + x
        row[j] = -x
    return row


def outdoor_columns_of(categories, io_map) -> list[int]:
    return [j for j, name in enumerate(categories) if io_map[name] == "outdoor"]


@st.composite
def extraction_batches(draw):
    """(image ids, the package's sources, the same sources in the frozen
    reference's types, workers, cache entries) of a small batch drawn to reach
    every branch of extraction; SafeSearch answers from a scripted transport."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [f"img_{i}" for i in range(draw(st.integers(0, 8)))]
    others = ids + ["not_in_manifest"]
    threshold = draw(st.floats(0, 1))
    sources = ExtractionSources(person_conf_threshold=threshold)
    frozen = frozen_extraction.ExtractionSources(person_conf_threshold=threshold)

    if draw(st.booleans()):
        near = [threshold, float(np.nextafter(threshold, 0.0)),
                float(np.nextafter(threshold, 1.0)), 0.0, -0.0, 1.0]
        conf = st.one_of(st.sampled_from(near), st.floats(0, 1))
        sources.detections = {
            image_id: [(draw(st.sampled_from(["person", "dog"])), draw(conf))
                       for _ in range(draw(st.integers(0, 4)))]
            for image_id in others if draw(st.booleans())}
        frozen.detections = {image_id: [frozen_extraction.Detection(*d) for d in dets]
                             for image_id, dets in sources.detections.items()}

    if draw(st.booleans()):
        k = draw(st.integers(1, 400))
        frozen.categories = tuple(f"cat_{j}" for j in range(k))
        # "indoor" everywhere leaves rows with no outdoor category
        outdoor_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
        frozen.io_map = {c: "outdoor" if rng.random() < outdoor_share else "indoor"
                         for c in frozen.categories}
        sources.outdoor_columns = outdoor_columns_of(frozen.categories, frozen.io_map)
        scene_ids = [i for i in others if draw(st.booleans())]
        values = np.array([scene_row(draw, rng, k) for _ in scene_ids]).reshape(-1, k)
        sources.scenes = frozen.scenes = FeatureStore(scene_ids, values)

    if draw(st.booleans()):
        script = {image_id: (draw(st.sampled_from([200, 200, 200, 429, 500])),
                             {field: draw(st.sampled_from(LEVEL_TOKENS))
                              for field in OK_RESPONSE})
                  for image_id in ids}
        sources.safe_search = frozen.safe_search = make_client(
            lambda url, headers, body: script[body["image"]["source"]["uri"]],
            max_attempts=1, requests_per_second=0.0)

    # the cache entries each side starts with
    entries = draw(st.sampled_from(["empty", "prefilled", "truncated"]))
    if entries == "prefilled":
        level = st.sampled_from([lvl.name for lvl in Likelihood] + [None])
        entries = {image_id: json.dumps({c: draw(level) for c in SENSITIVITY_CLASSES},
                                        sort_keys=True).encode()
                   for image_id in ids if draw(st.booleans())}
    elif entries == "truncated":
        entries = {draw(st.sampled_from(ids)): b'{"adult": "LIK'} if ids else {}
    elif entries == "empty":
        entries = {}
    return ids, sources, frozen, draw(st.integers(1, 3)), entries


def old_cache_with(path, entries):
    """`path` as a cache of the frozen reference holding `entries` (image id
    -> the bytes of its per-image entry)."""
    path.mkdir()
    for image_id, raw in entries.items():
        frozen_extraction._cache_path(path, image_id).write_bytes(raw)
    return path


def segment_cache_with(path, entries):
    """`path` as a segment cache answering each image of `entries` as its
    per-image entry does: the readable entries in one segment, and the bytes
    of each unreadable one as a segment of their own."""
    path.mkdir()
    readable = {}
    for k, (image_id, raw) in enumerate(entries.items()):
        try:
            readable[image_id] = json.loads(raw)
        except ValueError:
            (path / f"answers-unreadable-{k}.json").write_bytes(raw)
    if readable:
        (path / "answers-readable.json").write_text(json.dumps(readable))
    return path




# pieces of image ids: path separators, commas, quotes and non-ASCII text
ID_PIECES = st.sampled_from(["img", "/", "..", ",", '"', "'", "\\", " ", "é", "图", "1"])
LEVEL_NAMES = st.sampled_from([lvl.name for lvl in Likelihood] + [None])
GOOD_ENTRIES = st.fixed_dictionaries({c: LEVEL_NAMES for c in SENSITIVITY_CLASSES})
# entries that lack a key, have a bad token or are no object
DAMAGED_ENTRIES = st.sampled_from([
    {}, {"adult": "LIKELY"}, dict.fromkeys(SENSITIVITY_CLASSES, "LIK"),
    dict.fromkeys(SENSITIVITY_CLASSES, 3), "VERY_LIKELY", None, [1, 2]])
# segments that cannot be read: truncated, not a JSON object, not UTF-8, a directory
UNREADABLE_SEGMENTS = st.sampled_from([b'{"img": {"adult": "LIK', b"[1, 2]", b'"x"', b"\xff{}",
                                       "directory"])


def is_good(entry) -> bool:
    return (isinstance(entry, dict) and set(SENSITIVITY_CLASSES) <= entry.keys()
            and all(entry[c] is None or entry[c] in Likelihood.__members__
                    for c in SENSITIVITY_CLASSES))


def result_of(entry) -> SafeSearchResult:
    return SafeSearchResult(**{c: None if entry[c] is None else Likelihood[entry[c]]
                               for c in SENSITIVITY_CLASSES})


@st.composite
def cache_layouts(draw):
    """(wanted ids, segments by file name: an id -> entry dict or unreadable
    bytes, entries of the earlier per-image layout by id: an entry or
    unreadable bytes)."""
    ids = draw(st.lists(st.lists(ID_PIECES, min_size=1, max_size=4).map("".join),
                        min_size=1, max_size=8, unique=True))
    entry = st.one_of(GOOD_ENTRIES, GOOD_ENTRIES, DAMAGED_ENTRIES)
    n = draw(st.integers(0, 4))
    segments = {}
    for j in draw(st.permutations(range(n))):  # name order is not drawing order
        if draw(st.integers(0, 3)) == 0:
            segments[f"answers-{j}.json"] = draw(UNREADABLE_SEGMENTS)
        else:
            segments[f"answers-{j}.json"] = {
                i: draw(entry) for i in draw(st.permutations(ids)) if draw(st.booleans())}
    old = {i: draw(st.one_of(GOOD_ENTRIES, st.just(b'{"adult": '))) for i in ids
           if draw(st.booleans())}
    wanted = [i for i in draw(st.permutations(ids + ["not cached"])) if draw(st.booleans())]
    return wanted, segments, old


class TestSegmentCache:
    """`_read_answers` against a model of the cache rules: in segment name
    order the first good entry wins; every unreadable segment and every
    damaged entry read is one warning. A per-image entry of the earlier
    layout is ignored, readable or not."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cache_layouts())
    def test_read_answers_follows_the_model(self, caplog, layout):
        wanted, segments, old = layout
        expected, warnings, unreadable = {}, 0, []
        for name, segment in sorted(segments.items()):
            if not isinstance(segment, dict):
                warnings += 1
                unreadable.append(name)
                continue
            for i, entry in segment.items():
                if i in wanted and i not in expected:
                    if is_good(entry):
                        expected[i] = result_of(entry)
                    else:
                        warnings += 1

        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp)
            for name, segment in segments.items():
                if segment == "directory":
                    (cache / name).mkdir()
                else:
                    (cache / name).write_bytes(segment if isinstance(segment, bytes)
                                               else json.dumps(segment).encode())
            for i, entry in old.items():
                frozen_extraction._cache_path(cache, i).write_bytes(
                    entry if isinstance(entry, bytes) else json.dumps(entry).encode())
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="privlens.extractors"):
                got = _read_answers(cache, wanted)
        assert got == [expected.get(i) for i in wanted]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == warnings
        for name in unreadable:
            assert sum(f"ignoring unreadable cache segment {Path(tmp) / name}: " in m
                       for m in messages) == 1


class TestAgainstFrozenReference:
    """The batch extraction against the earlier per-image code in
    `frozen_extraction`."""

    @settings(max_examples=80, deadline=None)
    @given(extraction_batches())
    def test_same_file_and_report_as_the_per_image_extraction(self, batch):
        ids, sources, frozen, workers, entries = batch
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            want_cache = old_cache_with(tmp / "want_cache", entries)
            got_cache = segment_cache_with(tmp / "got_cache", entries)
            want = frozen_extraction.run_extraction(ids, frozen, want_cache, tmp / "want.csv",
                                                    workers)
            store, got = run_extraction(ids, sources, got_cache, workers)
            assert csv_bytes(store, tmp / "got.csv") == (tmp / "want.csv").read_bytes()
            # each image gets the same answer from each cache; only segments are written
            assert _read_answers(got_cache, ids) == [frozen_extraction._read_cache(
                frozen_extraction._cache_path(want_cache, i)) for i in ids]
            assert sorted(got_cache.iterdir()) == segments(got_cache)
        assert got.to_dict() == want.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 400), st.sampled_from([0.2, 1.0, 5.0]),
           st.integers(0, 2**32 - 1))
    def test_batch_outdoor_mass_is_bitwise_the_per_image_sum(self, m, k, alpha, seed):
        # `%.6f` would hide a last-bit change, so the sums are compared as bits
        rng = np.random.default_rng(seed)
        values = rng.dirichlet(np.full(k, alpha), size=m)
        values[rng.random((m, k)) < 0.05] = -0.0
        names = tuple(f"cat_{j}" for j in range(k))
        io_map = {n: "outdoor" if rng.random() < 0.7 else "indoor" for n in names}
        got = outdoor_probability(FeatureStore([f"img_{i}" for i in range(m)], values),
                                  outdoor_columns_of(names, io_map))
        want = np.array([frozen_extraction.outdoor_probability(
            SimpleNamespace(probs=row, category_names=names), io_map) for row in values])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def http_client(url, **kwargs):
    """A client on the default transport that never waits."""
    return SafeSearchClient(url=url, **CLIENT_SETTINGS | {"requests_per_second": 0.0} | kwargs)


class TestAgainstRealHttp:
    def test_requests_transport_roundtrip(self, mock_server):
        client = http_client(f"http://127.0.0.1:{mock_server.server_port}/")
        result = client.annotate("img.jpg")
        assert result.racy is L.POSSIBLE
        assert mock_server.calls == 1

    def test_rate_limited_uri_exhausts_attempts(self, mock_server):
        client = http_client(f"http://127.0.0.1:{mock_server.server_port}/", max_attempts=3)
        with pytest.raises(RateLimited):
            client.annotate("limited.jpg")
        assert mock_server.calls == 3

    def test_connection_refused_is_one_transport_error(self):
        with socket.socket() as bound:  # bound but not listening: a connect is refused
            bound.bind(("127.0.0.1", 0))
            client = http_client(f"http://127.0.0.1:{bound.getsockname()[1]}/")
            attempts = []
            client.transport = lambda *a: attempts.append(a) or client._requests_transport(*a)
            with pytest.raises(TransportError):
                client.annotate("img.jpg")
        assert len(attempts) == 1

    def test_500_with_html_body_is_transport_error(self, mock_server):
        client = http_client(f"http://127.0.0.1:{mock_server.server_port}/")
        with pytest.raises(TransportError, match="HTTP 500"):
            client.annotate("broken.jpg")
        assert mock_server.calls == 1

    def test_200_without_json_is_malformed(self, mock_server):
        client = http_client(f"http://127.0.0.1:{mock_server.server_port}/")
        with pytest.raises(MalformedResponse):
            client.annotate("garbled.jpg")

    def test_key_arrives_as_bearer_token(self, mock_server):
        client = http_client(f"http://127.0.0.1:{mock_server.server_port}/", api_key="s3cret")
        client.annotate("img.jpg")
        assert mock_server.last_headers["Authorization"] == "Bearer s3cret"

    def test_redirect_is_not_followed(self, mock_server):
        # the bearer key must not reach whatever host a 3xx names
        with serving_mock() as elsewhere:
            mock_server.redirect_to = f"http://127.0.0.1:{elsewhere.server_port}/"
            client = http_client(f"http://127.0.0.1:{mock_server.server_port}/", api_key="s3cret")
            with pytest.raises(TransportError, match="HTTP 302"):
                client.annotate("moved.jpg")
        assert mock_server.calls == 1
        assert elsewhere.calls == 0 and elsewhere.last_headers is None

    def test_posted_body_is_the_json_request(self, mock_server):
        client = http_client(f"http://127.0.0.1:{mock_server.server_port}/v1/images:annotate")
        client.annotate("img.jpg")
        assert mock_server.last_headers["Content-Type"] == "application/json"
        assert "Authorization" not in mock_server.last_headers
        assert mock_server.last_body == json.dumps(
            {"image": {"source": {"uri": "img.jpg"}}}).encode("utf-8")
