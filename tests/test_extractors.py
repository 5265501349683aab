import numpy as np
import pytest
from hypothesis import given, strategies as st

from privlens.data_io import FeatureStore
from privlens.errors import (
    AuthError,
    MalformedResponse,
    RateLimited,
    TransportError,
    UnmappedCategory,
)
from privlens.extractors import (
    Detection,
    ExtractionSources,
    SafeSearchClient,
    SafeSearchResult,
    SceneDistribution,
    load_detections,
    load_io_map,
    outdoor_probability,
    people_features,
    run_extraction,
)
from privlens.features import Likelihood

L = Likelihood

OK_RESPONSE = {
    "adult": "VERY_UNLIKELY", "racy": "POSSIBLE", "medical": "VERY_UNLIKELY",
    "spoof": "VERY_UNLIKELY", "violence": "UNLIKELY",
}


class TestPeopleFeatures:
    def test_empty(self):
        assert people_features([]) == (0, 0.0)

    def test_threshold_applies_to_count_only(self):
        dets = [Detection("person", 0.9), Detection("person", 0.7), Detection("dog", 0.95)]
        assert people_features(dets, 0.5) == (2, 0.9)

    def test_weak_person_counts_zero_but_keeps_prob(self):
        assert people_features([Detection("person", 0.3)], 0.5) == (0, 0.3)

    @given(st.lists(st.tuples(st.sampled_from(["person", "dog", "car"]),
                              st.floats(0, 1)), max_size=12),
           st.floats(0, 1))
    def test_permutation_invariant(self, raw, threshold):
        dets = [Detection(c, conf) for c, conf in raw]
        forward = people_features(dets, threshold)
        assert people_features(list(reversed(dets)), threshold) == forward


class TestOutdoorProbability:
    def test_all_mass_outdoor(self):
        scene = SceneDistribution(np.array([1.0, 0.0]), ("beach", "kitchen"))
        io_map = {"beach": "outdoor", "kitchen": "indoor"}
        assert outdoor_probability(scene, io_map) == 1.0

    def test_uniform_split(self):
        scene = SceneDistribution(np.array([0.5, 0.5]), ("beach", "kitchen"))
        io_map = {"beach": "outdoor", "kitchen": "indoor"}
        assert outdoor_probability(scene, io_map) == 0.5

    def test_hand_summed(self):
        scene = SceneDistribution(np.array([0.7, 0.2, 0.1]), ("a", "b", "c"))
        io_map = {"a": "indoor", "b": "outdoor", "c": "outdoor"}
        assert outdoor_probability(scene, io_map) == pytest.approx(0.3)

    def test_unmapped_category(self):
        scene = SceneDistribution(np.array([1.0]), ("mystery",))
        with pytest.raises(UnmappedCategory):
            outdoor_probability(scene, {})

    def test_complement_of_indoor_mass(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(10))
        names = tuple(f"c{i}" for i in range(10))
        io_map = {n: ("outdoor" if i % 3 else "indoor") for i, n in enumerate(names)}
        out = outdoor_probability(SceneDistribution(probs, names), io_map)
        indoor = sum(p for n, p in zip(names, probs) if io_map[n] == "indoor")
        assert out == pytest.approx(1.0 - indoor)
        assert 0.0 <= out <= 1.0


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


def make_client(transport, **kwargs):
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("sleep", lambda s: None)
    return SafeSearchClient(url="http://fake", transport=transport, **kwargs)


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

    def test_gives_up_after_max_attempts(self):
        transport = CountingTransport(script=[429] * 10)
        client = make_client(transport, max_attempts=5)
        with pytest.raises(RateLimited):
            client.annotate("x")
        assert transport.calls == 5  # never more than the configured cap

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


class TestFileLoaders:
    def test_detections(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("image_id,class_name,confidence\na,person,0.9\na,dog,0.5\nb,person,0.2\n")
        dets = load_detections(path)
        assert len(dets["a"]) == 2 and dets["b"][0].confidence == 0.2

    def test_io_map(self, tmp_path):
        path = tmp_path / "io.txt"
        path.write_text("beach,outdoor\nkitchen,indoor\n")
        assert load_io_map(path) == {"beach": "outdoor", "kitchen": "indoor"}


def make_ids(n):
    return [f"img_{i}" for i in range(n)]


class TestRunExtraction:
    def sources(self, transport=None):
        detections = {"img_0": [Detection("person", 0.9)], "img_1": []}
        scenes = FeatureStore(["img_0", "img_1"], np.array([[0.8, 0.2], [0.5, 0.5]]))
        client = make_client(transport) if transport is not None else None
        return ExtractionSources(
            safe_search=client,
            detections=detections,
            scenes=scenes,
            categories=("beach", "kitchen"),
            io_map={"beach": "outdoor", "kitchen": "indoor"},
        )

    def test_happy_path_two_rows(self, tmp_path):
        transport = CountingTransport()
        report = run_extraction(make_ids(2), self.sources(transport),
                                tmp_path / "cache", tmp_path / "out.csv", workers=2)
        assert report.n_complete == 2 and report.ok
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("img_0,VERY_UNLIKELY,POSSIBLE")
        assert lines[1].endswith("0.900000,1,0.800000")

    def test_warm_cache_issues_zero_calls(self, tmp_path):
        transport = CountingTransport()
        run_extraction(make_ids(2), self.sources(transport),
                       tmp_path / "cache", tmp_path / "out.csv")
        first_calls = transport.calls
        assert first_calls == 2
        out1 = (tmp_path / "out.csv").read_bytes()
        run_extraction(make_ids(2), self.sources(transport),
                       tmp_path / "cache", tmp_path / "out.csv")
        assert transport.calls == first_calls  # zero new HTTP calls
        assert (tmp_path / "out.csv").read_bytes() == out1  # byte-identical

    def test_permanent_failure_isolated(self, tmp_path):
        class FailSecond(CountingTransport):
            def __call__(self, url, headers, body):
                self.calls += 1
                uri = body["image"]["source"]["uri"]
                if uri == "img_1":
                    return 429, {}
                return 200, OK_RESPONSE

        report = run_extraction(make_ids(3), self.sources(FailSecond()),
                                tmp_path / "cache", tmp_path / "out.csv")
        assert report.n_complete == 2
        assert list(report.failures) == ["img_1"]
        assert "RateLimited" in report.failures["img_1"]
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 surviving rows

    def test_missing_sensitivity_flagged(self, tmp_path):
        sources = self.sources(transport=None)  # no safe-search source
        report = run_extraction(make_ids(2), sources,
                                tmp_path / "cache", tmp_path / "out.csv")
        assert report.n_complete == 2
        assert set(report.imputed["img_0"]) == {
            "adult", "racy", "medical", "spoofed", "violent"}
        line = (tmp_path / "out.csv").read_text().splitlines()[1]
        assert line.startswith("img_0,,,,,")



class TestAgainstRealHttp:
    def test_requests_transport_roundtrip(self, mock_server):
        url = f"http://127.0.0.1:{mock_server.server_port}/"
        client = SafeSearchClient(url=url, backoff_base=0.0, sleep=lambda s: None,
                                  requests_per_second=0.0)
        result = client.annotate("img.jpg")
        assert result.racy is L.POSSIBLE
        assert mock_server.calls == 1

    def test_rate_limited_uri_exhausts_attempts(self, mock_server):
        url = f"http://127.0.0.1:{mock_server.server_port}/"
        client = SafeSearchClient(url=url, max_attempts=3, backoff_base=0.0,
                                  sleep=lambda s: None, requests_per_second=0.0)
        with pytest.raises(RateLimited):
            client.annotate("limited.jpg")
        assert mock_server.calls == 3
