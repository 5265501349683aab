"""Frozen reference copies of the earlier per-image extraction: the
detection and scene row classes, the sources it reads, the per-image people
and outdoor features, and `run_extraction` with its per-image worker and
hand-written CSV. They are kept to check the batch extraction in
`privlens.extractors` against. The code is the earlier code verbatim, the
per-image SafeSearch lookup `_sensitivity_for` included; the cache file
naming and reading and the report are imported from the package, which
still has them. Do not change these to follow the package.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from privlens.data_io import FeatureStore
from privlens.errors import ExtractionError, InvalidScene, UnmappedCategory
from privlens.extractors import (
    ExtractionReport,
    SafeSearchClient,
    SafeSearchResult,
    _cache_path,
    _read_cache,
)
from privlens.features import SENSITIVITY_CLASSES


@dataclass(frozen=True)
class Detection:
    class_name: str
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of [0,1]: {self.confidence}")


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


@dataclass(frozen=True)
class SceneDistribution:
    probs: np.ndarray
    category_names: tuple[str, ...]

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.size != len(self.category_names):
            raise ValueError("probs and category_names must align")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-6:
            raise InvalidScene("scene probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "probs", probs)


def people_features(
    detections: list[Detection], conf_threshold: float = 0.5
) -> tuple[int, float]:
    """(count of person detections at/above threshold, max person confidence).

    The probability deliberately ignores the threshold so weak evidence still
    reaches the classifier.
    """
    if not 0.0 <= conf_threshold <= 1.0:
        raise ValueError("conf_threshold must lie in [0,1]")
    person_confs = [d.confidence for d in detections if d.class_name == "person"]
    count = sum(1 for c in person_confs if c >= conf_threshold)
    prob = max(person_confs, default=0.0)
    return count, prob


def outdoor_probability(scene: SceneDistribution, io_map: dict[str, str]) -> float:
    """Total probability mass on categories mapped to 'outdoor'."""
    total = 0.0
    for name, p in zip(scene.category_names, scene.probs):
        try:
            side = io_map[name]
        except KeyError:
            raise UnmappedCategory(name)
        if side == "outdoor":
            total += float(p)
    return total


def _sensitivity_for(
    image_id: str, sources: ExtractionSources, cache_dir: Path | None
) -> SafeSearchResult | None:
    """Cached SafeSearch lookup; None when no sensitivity source exists."""
    path = _cache_path(cache_dir, image_id) if cache_dir is not None else None
    cached = _read_cache(path) if path is not None else None
    if cached is not None:
        return cached
    if sources.safe_search is None:
        return None
    ref = sources.image_refs.get(image_id, image_id)
    result = sources.safe_search.annotate(ref)
    if path is not None:
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(result.to_dict(), sort_keys=True), "utf-8")
        tmp.replace(path)
    return result


def _format_float(x: float) -> str:
    return format(float(x), ".6f")


def run_extraction(
    image_ids: list[str],
    sources: ExtractionSources,
    cache_dir,
    out_path,
    workers: int = 4,
) -> ExtractionReport:
    """Produce privacy_features.csv for the manifest's `image_ids`; idempotent under re-run.

    Per-image failures land in the report; successful rows are still written,
    in manifest order, so re-runs with identical upstream responses produce
    byte-identical files.
    """
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
    report = ExtractionReport(n_images=len(image_ids))

    def extract_one(image_id: str):
        sensitivity = _sensitivity_for(image_id, sources, cache)
        if sources.detections is not None:
            count, prob = people_features(
                sources.detections.get(image_id, []), sources.person_conf_threshold
            )
        else:
            count, prob = 0, 0.0
        outdoor = 0.0
        row = sources.scenes.index.get(image_id) if sources.scenes is not None else None
        if row is not None:
            scene = SceneDistribution(sources.scenes.values[row], sources.categories)
            outdoor = outdoor_probability(scene, sources.io_map)
        return sensitivity, count, prob, outdoor

    results: dict[str, tuple] = {}
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = {pool.submit(extract_one, image_id): image_id for image_id in image_ids}
        for future, image_id in futures.items():
            try:
                results[image_id] = future.result()
            except (ExtractionError, UnmappedCategory) as exc:
                report.failures[image_id] = f"{type(exc).__name__}: {exc}"

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "image_id", "adult", "racy", "medical", "spoofed", "violent",
            "people_prob", "people_count", "outdoor_prob",
        ])
        for image_id in image_ids:
            if image_id not in results:
                continue
            sensitivity, count, prob, outdoor = results[image_id]
            cells = []
            missing = []
            for c in SENSITIVITY_CLASSES:
                level = getattr(sensitivity, c) if sensitivity is not None else None
                if level is None:
                    cells.append("")
                    missing.append(c)
                else:
                    cells.append(level.name)
            if missing:
                report.imputed[image_id] = missing
            writer.writerow(
                [image_id, *cells,
                 _format_float(prob), str(count), _format_float(outdoor)]
            )
            report.n_complete += 1
    return report
