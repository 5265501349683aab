"""Command-line front end: extract, train, evaluate, ablate, analyze.

Exit codes: 0 success, 2 partial failure, 64 usage error, 78 configuration
error, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from . import analysis, extractors
from .classifiers import (
    early_stopping_blocker,
    load_model,
    predict_label,
    save_model,
    train_logreg,
    train_mlp,
)
from .config import ExperimentConfig, load_config, load_dataset
from .data_io import (LABEL, Dataset, Split, StoreCache, build_design_matrix, load_deep_store,
                      load_image_refs, publish, write_manifest)
from .errors import (
    ConfigError,
    EmptyDataset,
    FeatureSpecMismatch,
    MissingFeatures,
    MissingGroupData,
    PrivlensError,
)
from .features import GROUP_ORDER, FeatureGroup, FeatureSpec
from .metrics import MetricsReport

log = logging.getLogger("privlens.cli")  # not __name__, which is "__main__" under python -m

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_CONFIG = 78
EXIT_INTERNAL = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="privlens", description=__doc__)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="top-level seed override")
    parser.add_argument("--out-dir", default=None, help="output directory override")
    parser.add_argument("--workers", type=int, default=None, help="the most extraction threads")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("extract", help="produce privacy_features.csv from configured sources")
    sub.add_parser("train", help="train the configured classifier")
    ev = sub.add_parser("evaluate", help="evaluate a saved model on the test split")
    ev.add_argument("model_path", help="model JSON produced by train")
    sub.add_parser("ablate", help="run the configured feature-subset ablation")
    sub.add_parser("analyze", help="run annotation / feature analyses")
    return parser


# --- shared helpers ----------------------------------------------------------

def _train_one(cfg: ExperimentConfig, ds: Dataset, spec: FeatureSpec):
    """Train on the train split.

    Returns (model, loss trace, the splits to score as name -> (X, y): train,
    and val when it is non-empty, why early stopping was off or None).
    """
    X_train, y_train, _ = build_design_matrix(ds, Split.TRAIN, spec)
    if X_train.size == 0:
        raise ConfigError("train split is empty")
    X_val, y_val, _ = build_design_matrix(ds, Split.VAL, spec)
    has_val = X_val.size > 0

    train_cfg = dataclasses.replace(cfg.train, seed=cfg.train_seed)
    kwargs, stop_note = {}, None
    if has_val and train_cfg.early_stop_patience is not None:
        kwargs = {"X_val": X_val, "y_val": y_val}
        reason = early_stopping_blocker(y_val, train_cfg.class_weighting)
        stop_note = f"disabled: {reason}" if reason else None
    if cfg.classifier_kind == "mlp":
        model, trace = train_mlp(X_train, y_train, train_cfg, list(cfg.hidden_dims), **kwargs)
    else:
        model, trace = train_logreg(X_train, y_train, train_cfg, **kwargs)
    model.feature_spec = spec
    splits = {"train": (X_train, y_train)}
    if has_val:
        splits["val"] = (X_val, y_val)
    return model, trace, splits, stop_note


def _commit(cfg: ExperimentConfig, cache: StoreCache | None = None, ds: Dataset | None = None,
            outputs=None) -> None:
    """The commit point of a command, reached once every input check has
    passed: nothing under --out-dir is created or changed before it. Creates
    --out-dir, saves the parsed deep stores, and writes the split manifest
    when `ds` drew its splits, then each of `outputs` (file name -> function
    writing that path), each file whole."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cache is not None:
        cache.save()
    if ds is not None and ds.splits_assigned:
        write_manifest(cfg.out_dir / "manifest_with_splits.csv", ds.manifest)
    for name, write in (outputs or {}).items():
        write(cfg.out_dir / name)


def _evaluate_model(model, ds: Dataset, split: Split) -> MetricsReport:
    try:
        X, y, _ = build_design_matrix(ds, split, model.feature_spec)
    except (MissingFeatures, MissingGroupData) as exc:
        raise FeatureSpecMismatch(str(exc)) from exc
    if X.size == 0:
        raise FeatureSpecMismatch(f"no labeled images in split {split.value!r}")
    if X.shape[1] != model.standardizer.dim:
        raise FeatureSpecMismatch(
            f"dataset yields {X.shape[1]} features, model expects {model.standardizer.dim}"
        )
    return MetricsReport.from_labels(y, predict_label(model, X))


# --- subcommands -------------------------------------------------------------

def cmd_extract(cfg: ExperimentConfig) -> int:
    cache = StoreCache(cfg.out_dir / "store_cache")
    image_ids = load_dataset(cfg, privacy=False, deep=False, annotations=False).manifest.ids
    image_refs = {}
    if cfg.data.image_refs is not None:
        image_refs = load_image_refs(cfg.data.image_refs)

    client = extractors.SafeSearchClient.from_env(
        max_attempts=cfg.safesearch_max_attempts,
        backoff_base=cfg.safesearch_backoff_base,
        requests_per_second=cfg.safesearch_rps,
    )
    if client is None:
        log.warning("no SafeSearch endpoint configured; sensitivity fields will be empty")

    detections = None
    if cfg.data.detections is not None:
        detections = extractors.load_detections(cfg.data.detections)
    scenes = outdoor_columns = None
    if cfg.data.scenes is not None:
        # parsed by this module's load_deep_store, the name the traced benchmark wraps
        scenes, outdoor_columns = extractors.load_scenes(
            cfg.data, lambda path: load_deep_store(path, cache))
    sources = extractors.ExtractionSources(
        person_conf_threshold=cfg.person_conf_threshold,
        safe_search=client,
        image_refs=image_refs,
        detections=detections,
        scenes=scenes,
        outdoor_columns=outdoor_columns,
    )
    _commit(cfg, cache)  # before the queries: each answer is cached as it arrives
    out_path = cfg.out_dir / "privacy_features.csv"
    report = extractors.run_extraction(
        image_ids, sources, cfg.out_dir / "safesearch_cache", out_path, workers=cfg.workers
    )
    analysis.write_json(cfg.out_dir / "extraction_report.json", report.to_dict())
    print(f"wrote {report.n_complete}/{report.n_images} rows to {out_path}")
    if report.failures:
        for image_id, err in sorted(report.failures.items()):
            print(f"FAILED {image_id}: {err}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_train(cfg: ExperimentConfig) -> int:
    cache = StoreCache(cfg.out_dir / "store_cache")
    ds = load_dataset(cfg, require_splits=True, annotations=False, cache=cache)
    model, trace, splits, stop_note = _train_one(cfg, ds, cfg.features)
    reports = {name: MetricsReport.from_labels(y, predict_label(model, X))
               for name, (X, y) in splits.items()}
    train_log = {
        "classifier_kind": cfg.classifier_kind,
        **cfg.features.to_dict(),
        "seed": cfg.seed,
        "derived_seeds": {"split": cfg.split_seed, "train": cfg.train_seed},
        "train_config": {k: v for k, v in dataclasses.asdict(cfg.train).items() if k != "seed"},
        "hidden_dims": list(cfg.hidden_dims) if cfg.classifier_kind == "mlp" else None,
        "metrics": {name: r.to_dict() for name, r in reports.items()},
    }
    if stop_note is not None:
        train_log["early_stopping"] = stop_note
    _commit(cfg, cache, ds, {
        "model.json": lambda path: save_model(model, path),
        "loss_trace.csv": lambda path: analysis.write_csv(
            path, ["epoch", "loss"], ([i, repr(loss)] for i, loss in enumerate(trace))),
        "training_log.json": lambda path: analysis.write_json(path, train_log),
    })
    for name, report in reports.items():
        print(report.table_row(name))
    print(f"model written to {cfg.out_dir / 'model.json'}")
    return EXIT_OK


def cmd_evaluate(cfg: ExperimentConfig, model_path) -> int:
    cache = StoreCache(cfg.out_dir / "store_cache")
    ds = load_dataset(cfg, require_splits=True, annotations=False, cache=cache)
    model = load_model(model_path)
    report = _evaluate_model(model, ds, Split.TEST)
    _commit(cfg, cache, ds,
            {"test_metrics.json": lambda path: analysis.write_json(path, report.to_dict())})
    print(report.table_row("test"))
    return EXIT_OK


def cmd_ablate(cfg: ExperimentConfig) -> int:
    if not cfg.ablation_rows:
        raise ConfigError("config has no [ablation] rows")
    cache = StoreCache(cfg.out_dir / "store_cache")
    ds = load_dataset(cfg, require_splits=True, annotations=False, cache=cache)

    results = {}  # row id -> its test metrics, or None when it failed
    outputs = {}  # the model of each row that ran, then the table and the CSV
    for row_id, spec in cfg.ablation_rows.items():
        try:
            model = _train_one(cfg, ds, spec)[0]
            results[row_id] = _evaluate_model(model, ds, Split.TEST)
            outputs[f"model_{row_id}.json"] = lambda path, m=model: save_model(m, path)
        except PrivlensError as exc:
            results[row_id] = None
            log.error("ablation row %s failed: %s", row_id, exc)

    header = ["row", "Sens", "People", "Out", "Places", "Deep", "BA", "F1"]
    csv_rows = []
    for row_id, spec in cfg.ablation_rows.items():
        marks = ["x" if g in spec.groups else "" for g in GROUP_ORDER]
        if spec.source_tag and FeatureGroup.DEEP in spec.groups:
            marks[4] = spec.source_tag
        if (report := results[row_id]) is not None:
            ba = f"{report.balanced_accuracy:.4f}" if report.balanced_accuracy is not None else "n/a"
            f1v = f"{report.f1:.4f}"
        else:
            ba = f1v = "ERROR"
        csv_rows.append([row_id, *marks, ba, f1v])
    table = "".join("  ".join(f"{c:<8s}" for c in cells) + "\n" for cells in [header, *csv_rows])
    outputs["ablation_table.txt"] = lambda path: publish(path, lambda fh: fh.write(table))
    outputs["ablation_results.csv"] = lambda path: analysis.write_csv(path, header, csv_rows)
    _commit(cfg, cache, ds, outputs)
    print(table, end="")
    return EXIT_PARTIAL if None in results.values() else EXIT_OK


def _report(stem: str, payload, header: list[str], rows) -> dict:
    """The outputs of one analysis: `<stem>.json` and the flat `<stem>.csv`."""
    return {f"{stem}.json": lambda path: analysis.write_json(path, payload),
            f"{stem}.csv": lambda path: analysis.write_csv(path, header, rows)}


def cmd_analyze(cfg: ExperimentConfig) -> int:
    ds = load_dataset(cfg, deep=False)
    outputs, skipped = {}, []

    have_votes = cfg.data.annotations is not None
    have_features = len(ds.privacy_features) > 0
    have_labels = not ds.manifest.missing[:, LABEL].all()

    if have_votes:
        if not ds.annotations:
            raise EmptyDataset("annotations file contains no votes")
        ids = analysis.controversial_image_ids(ds)
        outputs |= _report("controversial", {"image_ids": ids}, ["image_id"], [[i] for i in ids])
        if have_features:
            try:
                breakdown = analysis.controversial_people_breakdown(ds, ids)
                outputs |= _report("people_breakdown", breakdown, ["group", "fraction"],
                                   sorted(breakdown.items()))
            except analysis.EmptyControversialSet:
                skipped.append("people_breakdown (no controversial images)")
        else:
            skipped.append("people_breakdown (no privacy features)")
    else:
        skipped.append("controversial analyses (no annotations configured)")

    if have_features and have_labels:
        curves = {}
        for loc in (None, "indoor", "outdoor"):
            try:
                curves[loc or "all"] = analysis.cumulative_private_by_people(ds, loc)
            except EmptyDataset:
                pass
        outputs |= _report(
            "cumulative_private", curves, ["location", "max_people", "p_private"],
            [(loc, k, p) for loc, curve in sorted(curves.items()) for k, p in curve])

        dist = analysis.sensitivity_label_distribution(ds)
        outputs |= _report(
            "sensitivity_distribution", dist, ["class", "level", "label", "count"],
            [(c, lvl, lab, n)
             for c, per_level in sorted(dist["counts"].items())
             for lvl, per_label in per_level.items()
             for lab, n in sorted(per_label.items())])

        conditional = {
            c: analysis.private_prob_given_sensitivity(ds, c)
            for c in analysis.SENSITIVITY_CLASSES
        }
        outputs |= _report(
            "conditional_private", conditional, ["class", "level", "p_private", "support"],
            [(c, lvl, p, n) for c, rows in sorted(conditional.items()) for lvl, p, n in rows])

        columns = ["has_people", "is_sensitive", "is_outdoor", "share", "p_private", "support"]
        groups = analysis.group_privacy_probabilities(ds)
        outputs |= _report("group_probabilities", groups, columns,
                           [[g[c] for c in columns] for g in groups])
    else:
        skipped.append("feature-based analyses (need privacy features and labels)")

    _commit(cfg, outputs=outputs)
    for item in skipped:
        print(f"skipped: {item}", file=sys.stderr)
    print(f"analysis outputs written to {cfg.out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out_dir,
                          workers=args.workers)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.model_path)
        return {"extract": cmd_extract, "train": cmd_train, "ablate": cmd_ablate,
                "analyze": cmd_analyze}[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # a PrivlensError, or a fault no input check foresaw
        log.debug("%s failed", args.command, exc_info=exc)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
