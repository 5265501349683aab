"""Experiment configuration: a sectioned key-value file (INI syntax) validated
before any work starts. See README for the full schema.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .classifiers import TrainConfig
from .data_io import (
    SPLIT,
    Dataset,
    StoreCache,
    assign_splits,
    bad_input,
    load_annotations,
    load_deep_store,
    load_manifest,
    load_privacy_store,
    load_vote_store,
)
from .errors import ConfigError
from .features import FeatureGroup, FeatureSpec

_GROUP_TOKENS = {g.value: g for g in FeatureGroup}
_DEFAULT_GROUPS = "sens, people, out"


def parse_groups(token: str) -> frozenset[FeatureGroup]:
    groups = set()
    for part in token.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part not in _GROUP_TOKENS:
            raise ValueError(f"unknown feature group {part!r} "
                             f"(expected one of {sorted(_GROUP_TOKENS)})")
        groups.add(_GROUP_TOKENS[part])
    if not groups:
        raise ValueError("feature groups must be a nonempty subset")
    return frozenset(groups)


def _feature_spec(sec, default_groups: str = "") -> FeatureSpec:
    """The feature selection a [features] or [ablation.<row>] section declares."""
    try:
        return FeatureSpec(parse_groups(sec.get("groups", "").strip() or default_groups),
                           sec.get("source_tag", "").strip() or None)
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {exc}") from exc


@dataclass
class DataPaths:
    manifest: Path
    privacy_features: Path | None = None
    deep_features: tuple[Path, ...] = ()
    annotations: Path | None = None
    detections: Path | None = None
    scenes: Path | None = None
    categories: Path | None = None
    io_map: Path | None = None
    image_refs: Path | None = None


@dataclass
class ExperimentConfig:
    data: DataPaths
    features: FeatureSpec = FeatureSpec(parse_groups(_DEFAULT_GROUPS))
    classifier_kind: str = "logreg"
    train: TrainConfig = field(default_factory=TrainConfig)
    hidden_dims: tuple[int, int, int] = (16, 16, 8)
    split_fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    out_dir: Path = Path("out")
    seed: int = 0
    workers: int = 4
    person_conf_threshold: float = 0.5
    safesearch_max_attempts: int = 5
    safesearch_backoff_base: float = 1.0
    safesearch_rps: float = 5.0
    ablation_rows: dict[str, FeatureSpec] = field(default_factory=dict)  # in `rows =` order

    # fixed offsets deriving per-component seeds from the top-level seed
    SPLIT_SEED_OFFSET = 1
    TRAIN_SEED_OFFSET = 2

    @property
    def split_seed(self) -> int:
        return self.seed + self.SPLIT_SEED_OFFSET

    @property
    def train_seed(self) -> int:
        return self.seed + self.TRAIN_SEED_OFFSET


# Declared bounds; a value past one would hang a run, or end it in an
# exception from numpy or time.sleep, or in an allocation too large to make.
MAX_WORKERS = 64  # the most threads `extract` starts
MAX_EPOCHS = 100_000
MAX_WIDTH = 4096  # of one MLP hidden layer
MAX_ATTEMPTS = 10  # SafeSearch requests per image
MAX_BACKOFF_BASE = 10.0  # s; the longest wait is MAX_BACKOFF_BASE * 2**(MAX_ATTEMPTS - 2)
MAX_REQUEST_INTERVAL = 60  # s between two SafeSearch requests when `safesearch_rps` > 0


def _numbers(cast):
    return lambda raw: tuple(cast(part) for part in raw.split(","))


# (section, key): (the ExperimentConfig field it sets, or "train." and a TrainConfig
# field; how the value is read; when it is valid; what valid means). An empty
# value keeps the default. NaN fails every comparison. Section None: a flag only.
_KEYS = {
    ("train", "kind"): ("classifier_kind", str.lower, lambda v: v in ("logreg", "mlp"),
                        "logreg or mlp"),
    ("train", "learning_rate"): ("train.learning_rate", float, lambda v: 0 < v < math.inf,
                                 "a finite number above 0"),
    ("train", "epochs"): ("train.epochs", int, lambda v: 0 <= v <= MAX_EPOCHS,
                          f"an integer from 0 to {MAX_EPOCHS}"),
    ("train", "l2_penalty"): ("train.l2_penalty", float, lambda v: 0 <= v < math.inf,
                              "a finite number, at least 0"),
    ("train", "batch_size"): ("train.batch_size", int, lambda v: v >= 1,
                              "an integer of at least 1 (empty: full batch)"),
    ("train", "hidden_dims"): ("hidden_dims", _numbers(int),
                               lambda v: len(v) == 3 and all(1 <= d <= MAX_WIDTH for d in v),
                               f"three integers from 1 to {MAX_WIDTH}"),
    ("train", "class_weighting"): ("train.class_weighting", str,
                                   lambda v: v in ("balanced", "none"), "balanced or none"),
    ("train", "early_stop_patience"): ("train.early_stop_patience", int, lambda v: v >= 0,
                                       "an integer of at least 0 (empty: off)"),
    ("split", "fractions"): ("split_fractions", _numbers(float),
                             lambda v: (len(v) == 3 and all(0 <= f <= 1 for f in v)
                                        and abs(sum(v) - 1.0) <= 1e-9),
                             "three numbers in [0, 1] summing to 1"),
    ("experiment", "seed"): ("seed", int, lambda v: v >= 0, "an integer of at least 0"),
    ("extract", "person_conf_threshold"): ("person_conf_threshold", float,
                                           lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    ("extract", "safesearch_max_attempts"): ("safesearch_max_attempts", int,
                                             lambda v: 1 <= v <= MAX_ATTEMPTS,
                                             f"an integer from 1 to {MAX_ATTEMPTS}"),
    ("extract", "safesearch_backoff_base"): ("safesearch_backoff_base", float,
                                             lambda v: 0 <= v <= MAX_BACKOFF_BASE,
                                             f"a number from 0 to {MAX_BACKOFF_BASE:g}"),
    ("extract", "safesearch_rps"): ("safesearch_rps", float,
                                    lambda v: v == 0 or v >= 1 / MAX_REQUEST_INTERVAL,
                                    f"0 (no limit) or at least 1/{MAX_REQUEST_INTERVAL}"),
    ("output", "dir"): ("out_dir", Path, lambda v: True, "a path"),
    (None, "workers"): ("workers", int, lambda v: 1 <= v <= MAX_WORKERS,
                        f"an integer from 1 to {MAX_WORKERS}"),
}
_FEATURE_KEYS = ("groups", "source_tag")  # of [features] and of each [ablation.<row>]
# The keys each section takes; any other section or key is a ConfigError.
_SECTION_KEYS = {
    "DEFAULT": (),  # its keys would be read in every section
    "data": tuple(f.name for f in fields(DataPaths)),
    "features": _FEATURE_KEYS,
    "ablation": ("rows",),
    **{section: tuple(k for s, k in _KEYS if s == section) for section, _ in _KEYS if section},
}


def _check_keys(parser: configparser.ConfigParser) -> None:
    for name, section in parser.items():
        known = _FEATURE_KEYS if name.startswith("ablation.") else _SECTION_KEYS.get(name)
        if known is None:
            raise ConfigError(f"unknown section [{name}]")
        for key in section:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
            if "\0" in parser.get(name, key, raw=True):  # a path op would raise ValueError
                raise ConfigError(f"[{name}] {key} contains a NUL byte")


def _resolve_path(key, raw: str, base: Path) -> Path:
    path = (base / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
    if not path.exists():
        raise ConfigError(f"{key} = {raw!r} does not exist")
    return path


def _get_path(section, key, base: Path, required=False) -> Path | None:
    raw = section.get(key, "").strip()
    if not raw:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section.name}]")
        return None
    return _resolve_path(key, raw, base)


def load_config(path, seed: int | None = None, out_dir=None, workers: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file; CLI flags may override seed/out/workers."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8-sig")  # skips a byte-order mark
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config: {bad_input(exc, path, None)}") from exc
    if "data" not in parser:
        raise ConfigError("config must have a [data] section")
    _check_keys(parser)
    base = path.parent

    data_sec = parser["data"]
    deep_paths = tuple(_resolve_path("deep_features", part.strip(), base)
                       for part in data_sec.get("deep_features", "").split(",") if part.strip())
    cfg = ExperimentConfig(data=DataPaths(deep_features=deep_paths, **{
        key: _get_path(data_sec, key, base, required=key == "manifest")
        for key in _SECTION_KEYS["data"] if key != "deep_features"}))

    if "features" in parser:
        cfg.features = _feature_spec(parser["features"], _DEFAULT_GROUPS)

    # the flags' values replace the file's and go through the same checks
    flags = {("experiment", "seed"): ("--seed", seed), ("output", "dir"): ("--out-dir", out_dir),
             (None, "workers"): ("--workers", workers)}
    train = {}
    for (section, key), (target, cast, valid, expected) in _KEYS.items():
        where, raw = flags.get((section, key), (None, None))
        if raw is None:
            if section not in parser or not parser[section].get(key, "").strip():
                continue
            where, raw = f"[{section}] {key}", parser[section][key].strip()
        try:
            value = cast(raw)
            ok = valid(value)
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(f"{where} must be {expected}, got {raw}")
        if target.startswith("train."):
            train[target.removeprefix("train.")] = value
        else:
            setattr(cfg, target, value)
    cfg.train = TrainConfig(**train)

    if "ablation" in parser:
        row_ids = [r.strip() for r in parser["ablation"].get("rows", "").split(",") if r.strip()]
        if len(set(row_ids)) != len(row_ids):
            raise ConfigError("duplicate ablation row ids")
        for row_id in row_ids:
            sec_name = f"ablation.{row_id}"
            if sec_name not in parser:
                raise ConfigError(f"missing section [{sec_name}]")
            cfg.ablation_rows[row_id] = _feature_spec(parser[sec_name])

    return cfg


def load_dataset(
    cfg: ExperimentConfig,
    require_splits: bool = False,
    *,
    privacy: bool = True,
    deep: bool = True,
    annotations: bool = True,
    cache: StoreCache | None = None,
) -> Dataset:
    """Join the manifest and the configured stores that `privacy`, `deep` and
    `annotations` select (the rest stay empty) into a Dataset. Every store,
    the vote counts too, goes through `cache` when one is given; the votes of
    a file not read from its entry are parsed by `load_annotations` and
    counted by `vote_store`. Each store that lists the manifest's ids in its
    order holds the manifest's id list from its load on, in the cache's
    record too (see `data_io.aligned`), so each id is held once.

    When the manifest lacks splits and require_splits is set, a seeded random
    split is assigned and `splits_assigned` set; nothing is written.
    """
    manifest = load_manifest(cfg.data.manifest, cache)
    assigned = require_splits and bool(manifest.missing[:, SPLIT].any())
    if assigned:
        manifest = assign_splits(manifest, cfg.split_seed, cfg.split_fractions)

    stores = {}
    if privacy and cfg.data.privacy_features is not None:
        stores["privacy_features"] = load_privacy_store(cfg.data.privacy_features, cache,
                                                        manifest.ids)
    deep_stores = {}
    for p in cfg.data.deep_features if deep else ():
        tag, store, _ = load_deep_store(p, cache, manifest.ids)
        if tag in deep_stores:
            raise ConfigError(f"duplicate deep-feature source_tag {tag!r}")
        deep_stores[tag] = store
    if annotations and cfg.data.annotations is not None:
        # the parser goes by this module's name for it, which perfbench/traced_cli.py
        # wraps to time a miss's parse and count its votes
        stores["annotations"] = load_vote_store(cfg.data.annotations, cache, manifest.ids,
                                                load_annotations)
    return Dataset(manifest, deep_features=deep_stores, splits_assigned=assigned, **stores)
