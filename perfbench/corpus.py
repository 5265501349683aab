"""Seeded synthetic corpora and configs for the benchmark workloads.

The same seed gives byte-identical files. Sizes and per-image record counts
(splits, votes per image, detections per image) follow fixed patterns, so the
amount of work and every count the traced run reports do not depend on the
seed; only the values drawn do.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

LEVELS = ("VERY_UNLIKELY", "UNLIKELY", "POSSIBLE", "LIKELY", "VERY_LIKELY")
VOTES = ("clearly_private", "private", "undecidable", "public", "clearly_public")
SENSITIVITY = ("adult", "racy", "medical", "spoofed", "violent")
# SafeSearch response field for each sensitivity class, in the same order
RESPONSE_FIELDS = ("adult", "racy", "medical", "spoof", "violence")

DEEP_TAG = "resnet"
DEEP_DIM = 128
N_SCENES = 365
PERSON_CONF_THRESHOLD = 0.5

SIZES = {"deep-20k": 20_000, "tall-200k": 200_000, "extract-5k": 5_000}

# deep-20k ablation rows: feature groups and deep-store tag
ABLATION_ROWS = {
    "interp": (("sens", "people", "out"), None),
    "deep": (("deep",), DEEP_TAG),
    "both": (("sens", "people", "out", "deep"), DEEP_TAG),
}


def image_ids(n: int) -> list[str]:
    return [f"img_{i:06d}" for i in range(n)]


def split_of(i: int) -> str:
    return "train" if i % 10 < 7 else "val" if i % 10 == 7 else "test"


def votes_per_image(i: int) -> int:
    return 2 + i % 4


def detections_per_image(i: int) -> int:
    return i % 4


def label_rule(levels, people_prob, people_count, outdoor_prob) -> np.ndarray:
    """Known linear threshold over the encoded features; True means private."""
    enc = levels / 4.0
    score = (
        1.4 * enc[:, 0] + 1.2 * enc[:, 1] + 0.8 * enc[:, 2]
        + 0.6 * enc[:, 3] + 0.8 * enc[:, 4]
        + 0.7 * people_prob + 0.15 * np.minimum(people_count, 4)
        - 0.9 * outdoor_prob
    )
    return score > 0.55


def draw_features(rng: np.random.Generator, n: int):
    """The eight features as written: levels, then values at 6 decimals."""
    levels = rng.choice(5, size=(n, 5), p=[0.55, 0.2, 0.12, 0.08, 0.05])
    people_prob = np.round(rng.uniform(0, 1, n), 6)
    people_count = rng.poisson(1.2, n)
    outdoor_prob = np.round(rng.uniform(0, 1, n), 6)
    return levels, people_prob, people_count, outdoor_prob


def mock_levels(uri: str) -> list[int]:
    """The likelihood level (0..4) the mock endpoint gives each class of a URI."""
    digest = hashlib.blake2b(uri.encode("utf-8"), digest_size=8).digest()
    return [b % 5 for b in digest[:5]]


def rate_limited_once(uri: str) -> bool:
    """True for the fixed ~5% of images the mock answers 429 once.

    Decided by the image name alone, so the same images are chosen for
    every seed.
    """
    name = uri.rsplit("/", 1)[-1]
    return hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()[0] < 13


def _write_lines(path: Path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_manifest(path, ids, private, with_splits=True):
    labels = ["private" if p else "public" for p in private] if private is not None else None
    _write_lines(path, "image_id,label,split", (
        f"{image_id},{labels[i] if labels else ''},{split_of(i) if with_splits else ''}"
        for i, image_id in enumerate(ids)
    ))


def _write_privacy(path, ids, levels, people_prob, people_count, outdoor_prob):
    tokens = np.array(LEVELS)[levels]
    _write_lines(
        path,
        "image_id,adult,racy,medical,spoofed,violent,people_prob,people_count,outdoor_prob",
        (f"{image_id},{','.join(tokens[i])},{people_prob[i]:.6f},"
         f"{people_count[i]},{outdoor_prob[i]:.6f}" for i, image_id in enumerate(ids)),
    )


def _write_matrix_store(path, ids, tag, values):
    """Deep-store layout; each value written as its shortest round-trip repr."""
    dim = values.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"#source_tag={tag},dim={dim}\n")
        fh.write("image_id," + ",".join(f"v{k}" for k in range(dim)) + "\n")
        fh.write("\n".join(f"{image_id},{','.join(map(repr, row))}"
                           for image_id, row in zip(ids, values.tolist())))
        fh.write("\n")


def _write_config(path, sections: dict) -> None:
    text = []
    for name, keys in sections.items():
        text.append(f"[{name}]")
        text.extend(f"{k} = {v}" for k, v in keys.items())
        text.append("")
    path.write_text("\n".join(text), "utf-8")


def make_deep(root: Path, seed: int, n: int | None = None) -> Path:
    """20k labeled images: privacy store plus a class-shifted 128-dim deep store."""
    n = n or SIZES["deep-20k"]
    rng = np.random.default_rng([seed, 1])
    ids = image_ids(n)
    feats = draw_features(rng, n)
    private = label_rule(*feats)
    _write_manifest(root / "manifest.csv", ids, private)
    _write_privacy(root / "privacy_features.csv", ids, *feats)
    deep = rng.normal(0.0, 1.0, size=(n, DEEP_DIM))
    deep[:, :16] += np.where(private, 0.35, -0.35)[:, None]
    _write_matrix_store(root / "deep_resnet.csv", ids, DEEP_TAG, np.round(deep, 5))
    cfg = root / "deep.ini"
    _write_config(cfg, {
        "data": {"manifest": "manifest.csv", "privacy_features": "privacy_features.csv",
                 "deep_features": "deep_resnet.csv"},
        "train": {"kind": "logreg", "learning_rate": "0.5", "epochs": "200",
                  "class_weighting": "balanced"},
        "experiment": {"seed": str(seed)},
        "ablation": {"rows": ", ".join(ABLATION_ROWS)},
        **{f"ablation.{row}": {"groups": ", ".join(groups), "source_tag": tag or ""}
           for row, (groups, tag) in ABLATION_ROWS.items()},
    })
    return cfg


def make_tall(root: Path, seed: int, n: int | None = None) -> Path:
    """200k labeled images with the eight features and 2-5 assessor votes each."""
    n = n or SIZES["tall-200k"]
    rng = np.random.default_rng([seed, 2])
    ids = image_ids(n)
    feats = draw_features(rng, n)
    private = label_rule(*feats)
    _write_manifest(root / "manifest.csv", ids, private)
    _write_privacy(root / "privacy_features.csv", ids, *feats)
    # private images lean to private votes and public ones to public votes,
    # with enough disagreement that many images are controversial
    p_private = np.array([0.3, 0.3, 0.1, 0.2, 0.1])
    counts = np.array([votes_per_image(i) for i in range(n)])
    owner = np.repeat(np.arange(n), counts)
    u = rng.uniform(size=owner.size)
    cdf_priv = np.cumsum(p_private)
    cdf_pub = np.cumsum(p_private[::-1])
    as_private = np.minimum(np.searchsorted(cdf_priv, u, side="right"), 4)
    as_public = 4 - np.minimum(np.searchsorted(cdf_pub, u, side="right"), 4)
    vote = np.where(private[owner], as_private, as_public)
    start = np.concatenate([[0], np.cumsum(counts)[:-1]])
    assessor = np.arange(owner.size) - start[owner]
    _write_lines(root / "annotations.csv", "image_id,assessor_id,vote", (
        f"{ids[o]},a{a},{VOTES[v]}" for o, a, v in zip(owner, assessor, vote)
    ))
    cfg = root / "tall.ini"
    _write_config(cfg, {
        "data": {"manifest": "manifest.csv", "privacy_features": "privacy_features.csv",
                 "annotations": "annotations.csv"},
        "train": {"kind": "mlp", "learning_rate": "0.3", "epochs": "20",
                  "hidden_dims": "16, 16, 8", "class_weighting": "balanced"},
        "experiment": {"seed": str(seed)},
    })
    return cfg


def make_extract(root: Path, seed: int, n: int | None = None) -> Path:
    """5k unlabeled images with detections, 365-way scenes, an io map and URIs."""
    n = n or SIZES["extract-5k"]
    rng = np.random.default_rng([seed, 3])
    ids = image_ids(n)
    _write_manifest(root / "manifest.csv", ids, None, with_splits=False)
    _write_lines(root / "refs.csv", "image_id,uri", (
        f"{image_id},gs://bench-{seed}/{image_id}" for image_id in ids
    ))
    rows = []
    for i, image_id in enumerate(ids):
        for _ in range(detections_per_image(i)):
            cls = ("person", "person", "dog", "car")[rng.integers(4)]
            rows.append(f"{image_id},{cls},{rng.uniform():.4f}")
    _write_lines(root / "detections.csv", "image_id,class_name,confidence", rows)
    outdoor = rng.uniform(size=N_SCENES) < 0.5
    _write_lines(root / "io_map.txt", "# category,indoor|outdoor", (
        f"cat_{k:03d},{'outdoor' if outdoor[k] else 'indoor'}" for k in range(N_SCENES)
    ))
    # repr-precision cells, so each parsed row sums to 1 within 1e-6
    scenes = rng.dirichlet(np.full(N_SCENES, 0.2), size=n)
    _write_matrix_store(root / "scenes.csv", ids, "places365", scenes)
    cfg = root / "extract.ini"
    _write_config(cfg, {
        "data": {"manifest": "manifest.csv", "detections": "detections.csv",
                 "scenes": "scenes.csv", "io_map": "io_map.txt", "image_refs": "refs.csv"},
        "extract": {"safesearch_max_attempts": "3", "safesearch_backoff_base": "0.002",
                    "safesearch_rps": "10000",
                    "person_conf_threshold": str(PERSON_CONF_THRESHOLD)},
    })
    return cfg


MAKERS = {"deep-20k": make_deep, "tall-200k": make_tall, "extract-5k": make_extract}


def make_corpus(workload: str, seed: int, root: Path, n: int | None = None) -> Path:
    """Write the workload's corpus of `n` images (default: its full size)
    under `root`; returns its config path."""
    root.mkdir(parents=True, exist_ok=True)
    return MAKERS[workload](root, seed, n)
