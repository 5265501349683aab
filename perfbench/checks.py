"""Output checks computed apart from the program under test.

Each check reads the generated corpus with plain csv/numpy code, recomputes
what a command should have written under the rules in the package README,
and raises CheckFailed on the first disagreement. Nothing here imports
privlens.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import corpus

# The labels are a noise-free linear threshold of the eight interpretable
# features, so a linear model on them can reach balanced accuracy 1.0; 200
# full-batch epochs reach about 0.95. The floor catches a model that did not
# learn the rule.
INTERP_BA_FLOOR = 0.9

_LEVEL = {name: k for k, name in enumerate(corpus.LEVELS)}
_PRIVATE_VOTES = {"clearly_private", "private"}
_PUBLIC_VOTES = {"clearly_public", "public"}


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [row for row in reader if row]


def _table(path, ncols: int) -> np.ndarray:
    """A plain comma-separated file (no quoting) as an (n, ncols) string array."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        cells = fh.read().replace("\n", ",").rstrip(",").split(",")
    _require(len(cells) % ncols == 0, f"{path} is not a table of {ncols} columns")
    return np.array(cells).reshape(-1, ncols)


def _index(ids, keys) -> np.ndarray:
    """Row of each key in `ids`."""
    where = {image_id: k for k, image_id in enumerate(ids)}
    return np.array([where[k] for k in keys])


def _manifest(root: Path):
    table = _table(root / "manifest.csv", 3)
    return list(table[:, 0]), table[:, 1] == "private", table[:, 2]


def _privacy(root: Path, ids):
    """Levels (n,5), people_prob, people_count, outdoor_prob aligned to `ids`."""
    path = root / "privacy_features.csv"
    return _privacy_table(path, path.stat().st_mtime_ns, tuple(ids))


@functools.lru_cache(maxsize=1)
def _privacy_table(path: Path, mtime_ns: int, ids: tuple):
    # train and analyze both read the same 200k-row store; parse it once
    table = _table(path, 9)
    table = table[_index(table[:, 0], ids)]
    tokens, codes = np.unique(table[:, 1:6], return_inverse=True)
    levels = np.array([_LEVEL[t] for t in tokens])[codes.reshape(-1, 5)]
    return (levels, table[:, 6].astype(float), table[:, 7].astype(int),
            table[:, 8].astype(float))


def _matrix_store(path: Path, ids):
    """The values of a deep-store layout file, one row per id in `ids`."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        fh.readline()
        by_id = {}
        for line in fh:
            image_id, _, rest = line.rstrip("\n").partition(",")
            by_id[image_id] = rest
    return np.array([by_id[i].split(",") for i in ids], dtype=np.float64)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _confusion(truth, pred):
    return {
        "tp": int(np.sum(truth & pred)), "fp": int(np.sum(~truth & pred)),
        "tn": int(np.sum(~truth & ~pred)), "fn": int(np.sum(truth & ~pred)),
    }


def _balanced_accuracy(c):
    return (c["tp"] / (c["tp"] + c["fn"]) + c["tn"] / (c["tn"] + c["fp"])) / 2.0


def _f1(c):
    denom = 2 * c["tp"] + c["fp"] + c["fn"]
    return 2 * c["tp"] / denom if denom else 0.0


def _logits(model: dict, X: np.ndarray) -> np.ndarray:
    mean = np.array(model["standardizer"]["mean"])
    std = np.array(model["standardizer"]["stddev"])
    _require(X.shape[1] == mean.size,
             f"model expects {mean.size} columns, the corpus gives {X.shape[1]}")
    h = (X - mean) / std
    params = model["params"]
    if model["kind"] == "logreg":
        return h @ np.array(params["weights"]) + params["bias"]
    weights = [np.array(w) for w in params["weights"]]
    biases = [np.array(b) for b in params["biases"]]
    _require(len(weights) == 4, "an MLP has three hidden layers and one output layer")
    for W, b in zip(weights[:3], biases[:3]):
        h = np.maximum(h @ W + b, 0.0)
    return (h @ weights[3] + biases[3]).ravel()


def _predict(model: dict, X: np.ndarray):
    """(private predictions, rows whose logit is too near 0 to call exactly)."""
    z = _logits(model, X)
    return _sigmoid(z) >= 0.5, int(np.sum(np.abs(z) < 1e-9))


def _same_counts(got: dict, want: dict, slack: int, what: str) -> None:
    off = sum(abs(int(got[k]) - want[k]) for k in ("tp", "fp", "tn", "fn"))
    _require(off <= 2 * slack, f"{what}: confusion counts {got} != recomputed {want}")


def _design(features, deep, groups) -> np.ndarray:
    levels, people_prob, people_count, outdoor_prob = features
    blocks = {
        "sens": levels / 4.0,
        "people": np.column_stack([people_prob, people_count.astype(float)]),
        "out": outdoor_prob[:, None],
        "deep": deep,
    }
    return np.hstack([blocks[g] for g in ("sens", "people", "out", "places", "deep")
                      if g in groups])


# --- deep-20k: ablate and evaluate -------------------------------------------

def check_ablate(root: Path, out: Path) -> None:
    ids, private, splits = _manifest(root)
    features = _privacy(root, ids)
    deep = _matrix_store(root / "deep_resnet.csv", ids)
    test = splits == "test"
    features_test = tuple(f[test] for f in features)
    results = {r[0]: r for r in _rows(out / "ablation_results.csv")}
    _require(sorted(results) == sorted(corpus.ABLATION_ROWS),
             f"ablation rows {sorted(results)} != {sorted(corpus.ABLATION_ROWS)}")
    for row, (groups, tag) in corpus.ABLATION_ROWS.items():
        model = json.loads((out / f"model_{row}.json").read_text("utf-8"))
        _require(sorted(model["feature_spec"]["groups"]) == sorted(groups)
                 and model["feature_spec"]["source_tag"] == tag,
                 f"model_{row}.json has feature spec {model['feature_spec']}")
        pred, near = _predict(model, _design(features_test, deep[test], groups))
        counts = _confusion(private[test], pred)
        ba, f1 = _balanced_accuracy(counts), _f1(counts)
        if near == 0:
            _require(results[row][6:8] == [f"{ba:.4f}", f"{f1:.4f}"],
                     f"ablation row {row}: BA/F1 {results[row][6:8]} != "
                     f"recomputed {ba:.4f}/{f1:.4f}")
        if row == "interp":
            _require(ba >= INTERP_BA_FLOOR,
                     f"interpretable row BA {ba:.4f} is below the floor {INTERP_BA_FLOOR}")


def check_evaluate(root: Path, out: Path, model_path: Path) -> None:
    ids, private, splits = _manifest(root)
    test = splits == "test"
    features = tuple(f[test] for f in _privacy(root, ids))
    deep = _matrix_store(root / "deep_resnet.csv", ids)[test]
    model = json.loads(model_path.read_text("utf-8"))
    pred, near = _predict(model, _design(features, deep, model["feature_spec"]["groups"]))
    want = _confusion(private[test], pred)
    got = json.loads((out / "test_metrics.json").read_text("utf-8"))
    _same_counts(got["counts"], want, near, "test_metrics.json")
    _require(got["n"] == int(test.sum()), f"test_metrics.json n={got['n']}")
    if near == 0:
        _require(math.isclose(got["balanced_accuracy"], _balanced_accuracy(want),
                              rel_tol=1e-12), "test_metrics.json balanced accuracy")


# --- tall-200k: train and analyze --------------------------------------------

def check_train(root: Path, out: Path, config: Path) -> None:
    cfg = configparser.ConfigParser()
    cfg.read(config, encoding="utf-8")
    epochs = int(cfg["train"]["epochs"])
    with open(out / "loss_trace.csv", encoding="utf-8") as fh:
        trace = [float(r[1]) for r in list(csv.reader(fh))[1:]]
    _require(len(trace) == epochs + 1, f"loss trace has {len(trace)} rows, want {epochs + 1}")
    _require(all(math.isfinite(v) for v in trace), "loss trace has a non-finite value")
    _require(trace[-1] < 0.9 * trace[0], f"loss did not fall: {trace[0]} -> {trace[-1]}")

    ids, private, splits = _manifest(root)
    X = _design(_privacy(root, ids), None, ("sens", "people", "out"))
    model = json.loads((out / "model.json").read_text("utf-8"))
    log = json.loads((out / "training_log.json").read_text("utf-8"))
    for split in ("train", "val"):
        rows = splits == split
        pred, near = _predict(model, X[rows])
        _same_counts(log["metrics"][split]["counts"], _confusion(private[rows], pred),
                     near, f"training_log.json {split}")

    # the last trace entry is the balanced-weight BCE of the final model
    rows = splits == "train"
    y = private[rows].astype(float)
    z = _logits(model, X[rows])
    n, n_pos = y.size, y.sum()
    w = np.where(y == 1.0, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    loss = float(np.dot(w, np.logaddexp(0.0, z) - y * z) / w.sum())
    _require(math.isclose(loss, trace[-1], rel_tol=1e-9),
             f"final trace loss {trace[-1]} != recomputed {loss}")


def _json(path: Path):
    return json.loads(path.read_text("utf-8"))


def check_analyze(root: Path, out: Path) -> None:
    ids, private, _ = _manifest(root)
    levels, _, people_count, outdoor_prob = _privacy(root, ids)

    votes = _table(root / "annotations.csv", 3)
    owner = _index(ids, votes[:, 0])
    vote = np.char.lower(votes[:, 2])
    n = np.bincount(owner, minlength=len(ids))
    n_priv = np.bincount(owner, weights=np.isin(vote, list(_PRIVATE_VOTES)), minlength=len(ids))
    n_pub = np.bincount(owner, weights=np.isin(vote, list(_PUBLIC_VOTES)), minlength=len(ids))
    with np.errstate(invalid="ignore", divide="ignore"):
        mask = ((n >= 2) & (n_priv >= 1) & (n_pub >= 1)
                & (n_priv / n <= 0.65) & (n_pub / n <= 0.65))
    controversial = [ids[k] for k in np.flatnonzero(mask)]
    _require(_json(out / "controversial.json") == {"image_ids": controversial},
             "controversial.json differs from the recomputed ids")

    people = people_count[mask]
    total = len(controversial)
    breakdown = {"none": int(np.sum(people == 0)) / total,
                 "one_person": int(np.sum(people == 1)) / total,
                 "two_plus": int(np.sum(people >= 2)) / total}
    _require(_json(out / "people_breakdown.json") == breakdown,
             "people_breakdown.json differs from the recomputation")

    outdoor = outdoor_prob >= 0.5
    curves = {}
    for name, mask in (("all", np.ones_like(outdoor)), ("indoor", ~outdoor),
                       ("outdoor", outdoor)):
        counts = people_count[mask]
        if counts.size == 0:
            continue
        n_at = np.cumsum(np.bincount(counts))
        priv_at = np.cumsum(np.bincount(counts, weights=private[mask]))
        curves[name] = [[k, int(priv_at[k]) / int(n_at[k])]
                        for k in range(len(n_at)) if n_at[k]]
    _require(_json(out / "cumulative_private.json") == curves,
             "cumulative_private.json differs from the recomputation")

    dist = {"counts": {}, "shares": {}}
    conditional = {}
    for c, cls in enumerate(corpus.SENSITIVITY):
        per = {lvl: {"private": int(np.sum((levels[:, c] == k) & private)),
                     "public": int(np.sum((levels[:, c] == k) & ~private))}
               for k, lvl in enumerate(corpus.LEVELS)}
        dist["counts"][cls] = per
        dist["shares"][cls] = {
            key: {lvl: (per[lvl][key] / tot if tot else 0.0) for lvl in corpus.LEVELS}
            for key in ("private", "public")
            for tot in [sum(per[lvl][key] for lvl in corpus.LEVELS)]
        }
        conditional[cls] = [
            [lvl, (p / (p + q) if p + q else None), p + q]
            for lvl in corpus.LEVELS
            for p, q in [(per[lvl]["private"], per[lvl]["public"])]
        ]
    _require(_json(out / "sensitivity_distribution.json") == dist,
             "sensitivity_distribution.json differs from the recomputation")
    _require(_json(out / "conditional_private.json") == conditional,
             "conditional_private.json differs from the recomputation")

    has_people = people_count >= 1
    sensitive = np.any(levels >= _LEVEL["POSSIBLE"], axis=1)
    groups = []
    for p in (False, True):
        for s in (False, True):
            for o in (False, True):
                cell = (has_people == p) & (sensitive == s) & (outdoor == o)
                n_cell, n_priv = int(cell.sum()), int(np.sum(cell & private))
                groups.append({"has_people": p, "is_sensitive": s, "is_outdoor": o,
                               "share": n_cell / len(ids),
                               "p_private": n_priv / n_cell if n_cell else None,
                               "support": n_cell})
    _require(_json(out / "group_probabilities.json") == groups,
             "group_probabilities.json differs from the recomputation")


# --- extract-5k ----------------------------------------------------------------

def expected_http(root: Path) -> tuple[int, int]:
    """(requests, 429 answers) one cold extraction makes against the mock."""
    uris = [r[1] for r in _rows(root / "refs.csv")]
    n429 = sum(corpus.rate_limited_once(u) for u in uris)
    return len(uris) + n429, n429


def check_extract(root: Path, out: Path) -> None:
    ids = [r[0] for r in _rows(root / "manifest.csv")]
    uri = dict(_rows(root / "refs.csv"))
    people: dict[str, list[float]] = {}
    for image_id, cls, conf in _rows(root / "detections.csv"):
        if cls == "person":
            people.setdefault(image_id, []).append(float(conf))
    with open(root / "io_map.txt", encoding="utf-8") as fh:
        sides = [line.strip().split(",")[1] for line in fh
                 if line.strip() and not line.startswith("#")]
    outdoor_mask = np.array([s == "outdoor" for s in sides])
    scenes = _matrix_store(root / "scenes.csv", ids)
    outdoor = scenes[:, outdoor_mask].sum(axis=1)

    rows = _rows(out / "privacy_features.csv")
    _require([r[0] for r in rows] == ids, "privacy_features.csv ids differ from the manifest")
    for k, row in enumerate(rows):
        image_id = row[0]
        levels = [corpus.LEVELS[v] for v in corpus.mock_levels(uri[image_id])]
        confs = people.get(image_id, [])
        count = sum(c >= corpus.PERSON_CONF_THRESHOLD for c in confs)
        prob = max(confs, default=0.0)
        _require(row[1:6] == levels, f"{image_id}: sensitivity {row[1:6]} != {levels}")
        _require(row[6:8] == [f"{prob:.6f}", str(count)],
                 f"{image_id}: people {row[6:8]} != {[f'{prob:.6f}', str(count)]}")
        _require(abs(float(row[8]) - outdoor[k]) <= 1e-6,
                 f"{image_id}: outdoor_prob {row[8]} != {outdoor[k]}")

    report = _json(out / "extraction_report.json")
    _require(report == {"n_images": len(ids), "n_complete": len(ids),
                        "failures": {}, "imputed": {}},
             f"extraction report is not clean: {str(report)[:200]}")


def check_unchanged(first: str, now: str, what: str) -> None:
    """Equal output digests: a rerun, or a warm extraction, wrote the same bytes."""
    _require(first == now, f"{what} wrote other bytes than before")


def check_http(attempts: int, n429: int, want: tuple[int, int], what: str) -> None:
    _require((attempts, n429) == want,
             f"{what}: mock saw {attempts} requests and {n429} 429s, want {want}")
