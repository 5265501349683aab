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
    vote_store,
)
from .errors import ConfigError
from .features import FeatureGroup, FeatureSpec

_GROUP_TOKENS = {g.value: g for g in FeatureGroup}
_DEFAULT_GROUPS = "sens, people, out"

# Upper bound on `--workers`, the most threads `extract` starts.
MAX_WORKERS = 64


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


# TrainConfig field: how its value is read. Empty turns the two optional ones off.
_TRAIN_KEYS = {
    "learning_rate": float,
    "epochs": int,
    "l2_penalty": float,
    "batch_size": lambda raw: int(raw) if raw else None,
    "class_weighting": str,
    "early_stop_patience": lambda raw: int(raw) if raw else None,
}
# ExperimentConfig field: (cast, valid, what valid means); NaN fails every comparison
_EXTRACT_KEYS = {
    "person_conf_threshold": (float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "safesearch_max_attempts": (int, lambda v: v >= 1, "at least 1"),
    "safesearch_backoff_base": (float, lambda v: 0 <= v < math.inf, "finite and non-negative"),
    "safesearch_rps": (float, lambda v: v >= 0, "non-negative (0: no limit)"),
}
_FEATURE_KEYS = ("groups", "source_tag")  # of [features] and of each [ablation.<row>]
# The keys each section takes; any other section or key is a ConfigError.
_SECTION_KEYS = {
    "DEFAULT": (),  # its keys would be read in every section
    "data": tuple(f.name for f in fields(DataPaths)),
    "features": _FEATURE_KEYS,
    "train": ("kind", "hidden_dims", *_TRAIN_KEYS),
    "split": ("fractions",),
    "experiment": ("seed",),
    "extract": tuple(_EXTRACT_KEYS),
    "output": ("dir",),
    "ablation": ("rows",),
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
        parser.read(path, encoding="utf-8")
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

    if "train" in parser:
        sec = parser["train"]
        cfg.classifier_kind = sec.get("kind", cfg.classifier_kind).strip().lower()
        if cfg.classifier_kind not in ("logreg", "mlp"):
            raise ConfigError(f"unknown classifier kind {cfg.classifier_kind!r}")
        try:
            cfg.train = TrainConfig(**{key: read(sec[key].strip())
                                       for key, read in _TRAIN_KEYS.items() if key in sec})
            dims_raw = sec.get("hidden_dims", "").strip()
            if dims_raw:
                dims = tuple(int(d) for d in dims_raw.split(","))
                if len(dims) != 3 or min(dims) < 1:
                    raise ConfigError(f"hidden_dims must list exactly three positive widths, "
                                      f"got {dims_raw}")
                cfg.hidden_dims = dims
        except ValueError as exc:
            raise ConfigError(f"bad [train] value: {exc}") from exc

    if "split" in parser:
        raw = parser["split"].get("fractions", "").strip()
        if raw:
            try:
                fr = tuple(float(x) for x in raw.split(","))
            except ValueError as exc:
                raise ConfigError(f"bad split fractions: {exc}") from exc
            # NaN fails every comparison
            if len(fr) != 3 or not all(0 <= f <= 1 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
                raise ConfigError("split fractions must be three numbers in [0, 1] summing to 1, "
                                  f"got {raw}")
            cfg.split_fractions = fr

    if "extract" in parser:
        sec = parser["extract"]
        try:
            for key, (cast, valid, expected) in _EXTRACT_KEYS.items():
                if sec.get(key, "").strip():
                    value = cast(sec[key])
                    if not valid(value):
                        raise ConfigError(f"[extract] {key} must be {expected}, got {sec[key]}")
                    setattr(cfg, key, value)
        except ValueError as exc:
            raise ConfigError(f"bad [extract] value: {exc}") from exc

    if "output" in parser and parser["output"].get("dir", "").strip():
        cfg.out_dir = Path(parser["output"]["dir"])
    if "experiment" in parser and parser["experiment"].get("seed", "").strip():
        try:
            cfg.seed = int(parser["experiment"]["seed"])
        except ValueError as exc:
            raise ConfigError(f"bad [experiment] value: {exc}") from exc

    if "ablation" in parser:
        row_ids = [r.strip() for r in parser["ablation"].get("rows", "").split(",") if r.strip()]
        if len(set(row_ids)) != len(row_ids):
            raise ConfigError("duplicate ablation row ids")
        for row_id in row_ids:
            sec_name = f"ablation.{row_id}"
            if sec_name not in parser:
                raise ConfigError(f"missing section [{sec_name}]")
            cfg.ablation_rows[row_id] = _feature_spec(parser[sec_name])

    # CLI overrides
    if seed is not None:
        cfg.seed = seed
    if out_dir is not None:
        cfg.out_dir = Path(out_dir)
    if workers is not None:
        cfg.workers = workers
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if not 1 <= cfg.workers <= MAX_WORKERS:
        raise ConfigError(f"workers must be between 1 and {MAX_WORKERS}, got {cfg.workers}")
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
    `annotations` select (the rest stay empty) into a Dataset. Deep stores go
    through `cache` when one is given.

    When the manifest lacks splits and require_splits is set, a seeded random
    split is assigned and `splits_assigned` set; nothing is written.
    """
    manifest = load_manifest(cfg.data.manifest)
    assigned = require_splits and bool(manifest.missing[:, SPLIT].any())
    if assigned:
        manifest = assign_splits(manifest, cfg.split_seed, cfg.split_fractions)

    stores = {}
    if privacy and cfg.data.privacy_features is not None:
        stores["privacy_features"] = load_privacy_store(cfg.data.privacy_features)
    deep_stores = {}
    for p in cfg.data.deep_features if deep else ():
        tag, store, _ = load_deep_store(p, cache)
        if tag in deep_stores:
            raise ConfigError(f"duplicate deep-feature source_tag {tag!r}")
        deep_stores[tag] = store
    if annotations and cfg.data.annotations is not None:
        # the loader returns per-image records because perfbench/traced_cli.py counts their votes
        stores["annotations"] = vote_store(load_annotations(cfg.data.annotations))
    return Dataset(manifest, deep_features=deep_stores, splits_assigned=assigned, **stores)
