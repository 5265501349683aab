"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s`).

Criterion 9 (reproduction of published dataset numbers) needs the external
image corpus, precomputed extractor outputs and deep-feature stores; it is
skipped here with instructions in the README.
"""

import itertools
import json
import time

import numpy as np
import pytest

from privlens.classifiers import (
    TrainConfig,
    init_mlp_layers,
    load_model,
    logreg_loss_and_grad,
    mlp_loss_and_grad,
    predict_label,
    predict_proba,
    train_logreg,
    train_mlp,
)
from privlens.cli import EXIT_OK, EXIT_PARTIAL, main
from privlens.data_io import (
    AnnotationRecord,
    Dataset,
    FiveClassVote,
    Split,
    build_design_matrix,
    load_manifest,
    load_privacy_store,
    manifest_store,
    privacy_store,
    vote_store,
)
from privlens.analysis import (
    CONTROVERSY_MAX_SHARE,
    cumulative_private_by_people,
    group_privacy_probabilities,
    is_controversial,
    private_prob_given_sensitivity,
)
from privlens.errors import UndefinedMetric
from privlens.features import FeatureGroup as G
from privlens.features import FeatureSpec
from privlens.features import Likelihood as L
from privlens.features import PrivacyLabel
from privlens.metrics import ConfusionCounts, balanced_accuracy, confusion, f1, unweighted_accuracy

from conftest import make_pfv, write_synth_corpus
from test_classifiers import (
    central_diff,
    flatten_mlp,
    max_rel_error,
    random_mlp_layers,
    separable_2d,
    unflatten_mlp,
    xor_data,
)
from test_metrics import labels_from_counts, oracle_metrics

P, PUB = PrivacyLabel.PRIVATE, PrivacyLabel.PUBLIC
V = FiveClassVote


def test_criterion_1_metric_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for tp, fp, tn, fn in itertools.product(range(6), repeat=4):
        c = ConfusionCounts(tp, fp, tn, fn)
        if c.n == 0:
            continue
        y_true, y_pred = labels_from_counts(c)
        assert confusion(y_true, y_pred) == c
        ba_o, f1_o, uba_o = oracle_metrics(y_true, y_pred)
        if ba_o is None:
            with pytest.raises(UndefinedMetric):
                balanced_accuracy(c)
        else:
            assert abs(balanced_accuracy(c) - ba_o) <= 1e-12
        assert abs(f1(c) - f1_o) <= 1e-12
        assert abs(unweighted_accuracy(c) - uba_o) <= 1e-12
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: {checked} confusion matrices match the "
          f"per-sample oracle exactly ({elapsed:.2f}s)")


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, 5).astype(float)
        weights = rng.uniform(0.5, 2.0, 5)
        l2 = rng.uniform(0, 0.5)

        w = rng.normal(size=4)
        b = rng.normal()
        _, gw, gb = logreg_loss_and_grad(w, b, X, y, weights, l2)
        analytic = np.concatenate([gw, [gb]])
        numeric = central_diff(
            lambda t: logreg_loss_and_grad(t[:4], t[4], X, y, weights, l2)[0],
            np.concatenate([w, [b]]),
        )
        worst = max(worst, max_rel_error(analytic, numeric))

        layers = random_mlp_layers(4, [3, 3, 3], rng)
        _, gws, gbs = mlp_loss_and_grad(layers, X, y, weights, l2)
        analytic = np.concatenate([g.ravel() for g in gws] + [g.ravel() for g in gbs])
        numeric = central_diff(
            lambda t: mlp_loss_and_grad(unflatten_mlp(t, layers), X, y, weights, l2)[0],
            flatten_mlp(layers),
        )
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: 20 LogReg + 20 MLP gradient checks, "
          f"max relative error {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_learnability():
    start = time.monotonic()
    X, y = separable_2d(n=40, margin=0.5)
    model, _ = train_logreg(X, y, TrainConfig(learning_rate=0.1, epochs=500, seed=0))
    logreg_acc = np.mean((predict_proba(model, X) >= 0.5).astype(float) == y)
    assert logreg_acc == 1.0

    Xx, yx = xor_data(repeats=50)
    cfg = TrainConfig(learning_rate=0.05, epochs=5000, class_weighting="none", seed=0)
    mlp, _ = train_mlp(Xx, yx, cfg, [8, 8, 8])
    mlp_acc = np.mean((predict_proba(mlp, Xx) >= 0.5).astype(float) == yx)
    assert mlp_acc == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: LogReg 1.0 on separable, MLP [8,8,8] 1.0 on "
          f"XOR ({elapsed:.2f}s)")


def test_criterion_4_synthetic_end_to_end(tmp_path):
    start = time.monotonic()
    write_synth_corpus(tmp_path, n=2000, seed=11, noise=0.10)
    ds = Dataset(
        manifest=load_manifest(tmp_path / "manifest.csv"),
        privacy_features=load_privacy_store(tmp_path / "privacy_features.csv"),
    )

    def run(groups):
        X_tr, y_tr, _ = build_design_matrix(ds, Split.TRAIN, FeatureSpec(groups))
        X_te, y_te, _ = build_design_matrix(ds, Split.TEST, FeatureSpec(groups))
        model, _ = train_logreg(X_tr, y_tr, TrainConfig(learning_rate=0.2, epochs=600, seed=1))
        return confusion(y_te, predict_label(model, X_te))

    ba_full = balanced_accuracy(run({G.SENS, G.PEOPLE, G.OUT}))
    ba_out = balanced_accuracy(run({G.OUT}))
    elapsed = time.monotonic() - start
    assert ba_full >= 0.85
    assert ba_full - ba_out >= 0.10
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: 8-feature BA {ba_full:.4f} >= 0.85 and exceeds "
          f"outdoor-only BA {ba_out:.4f} by {(ba_full - ba_out) * 100:.1f} p.p. "
          f"({elapsed:.2f}s)")


def test_criterion_5_controversial_criterion():
    start = time.monotonic()
    private_votes = {V.CLEARLY_PRIVATE, V.PRIVATE}
    public_votes = {V.CLEARLY_PUBLIC, V.PUBLIC}
    checked = 0
    for size in range(2, 6):
        for votes in itertools.combinations_with_replacement(list(V), size):
            n_priv = sum(v in private_votes for v in votes)
            n_pub = sum(v in public_votes for v in votes)
            # literal reading: both labels present, neither selected by more
            # than 65% of assessors (undecidable votes count as assessors)
            literal = (
                n_priv >= 1 and n_pub >= 1
                and not n_priv / size > CONTROVERSY_MAX_SHARE
                and not n_pub / size > CONTROVERSY_MAX_SHARE
            )
            counts = vote_store({"x": AnnotationRecord("x", tuple(votes))}).values
            assert is_controversial(counts).tolist() == [literal]
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 5 PASS: closed form matches brute force on {checked} "
          f"vote multisets of size 2-5 ({elapsed:.2f}s)")


def test_criterion_6_analysis_oracles():
    # cumulative curve: counts/labels (0,Pub),(1,Priv),(1,Pub),(2,Priv)
    ds1 = Dataset(
        manifest=manifest_store({f"i{k}": (lab.value, "") for k, lab in
                                 enumerate([PUB, P, PUB, P])}),
        privacy_features=privacy_store({
            "i0": make_pfv(people_count=0),
            "i1": make_pfv(people_count=1),
            "i2": make_pfv(people_count=1),
            "i3": make_pfv(people_count=2),
        }),
    )
    curve = cumulative_private_by_people(ds1)
    expected = [(0, 0.0), (1, 1 / 3), (2, 0.5)]
    assert len(curve) == 3
    for (k, p), (ek, ep) in zip(curve, expected):
        assert k == ek and abs(p - ep) <= 1e-9

    # conditional private probability per adult level
    ds2 = Dataset(
        manifest=manifest_store({"a": ("private", ""), "b": ("private", ""),
                                 "c": ("public", ""), "d": ("private", "")}),
        privacy_features=privacy_store({
            "a": make_pfv(adult=L.VERY_LIKELY),
            "b": make_pfv(adult=L.VERY_LIKELY),
            "c": make_pfv(adult=L.VERY_UNLIKELY),
            "d": make_pfv(adult=L.VERY_UNLIKELY),
        }),
    )
    rows = {lvl: (prob, n) for lvl, prob, n in private_prob_given_sensitivity(ds2, "adult")}
    assert rows["VERY_LIKELY"][1] == 2 and abs(rows["VERY_LIKELY"][0] - 1.0) <= 1e-9
    assert rows["VERY_UNLIKELY"][1] == 2 and abs(rows["VERY_UNLIKELY"][0] - 0.5) <= 1e-9
    assert rows["POSSIBLE"] == (None, 0)

    # group probabilities: 8 images, one per cell, labels alternating
    manifest, features = {}, {}
    labels = [P, PUB, P, PUB, P, PUB, P, PUB]
    for k, ((people, sens, outd), lab) in enumerate(
            zip(itertools.product([0, 1], repeat=3), labels)):
        image_id = f"g{k}"
        manifest[image_id] = (lab.value, "")
        features[image_id] = make_pfv(
            racy=L.LIKELY if sens else L.VERY_UNLIKELY,
            people_count=people,
            outdoor_prob=0.9 if outd else 0.1,
        )
    cells = group_privacy_probabilities(
        Dataset(manifest_store(manifest), privacy_features=privacy_store(features)))
    assert len(cells) == 8
    assert abs(sum(c["share"] for c in cells) - 1.0) <= 1e-9
    for c in cells:
        assert abs(c["share"] - 0.125) <= 1e-9
        assert c["p_private"] in (0.0, 1.0)
    print("\nACCEPTANCE 6 PASS: cumulative, conditional and group analyses "
          "match hand-computed fixtures to 1e-9")


def test_criterion_7_determinism(tmp_path):
    write_synth_corpus(tmp_path, n=200, seed=7)
    (tmp_path / "exp.ini").write_text("""
[data]
manifest = manifest.csv
privacy_features = privacy_features.csv

[features]
groups = sens, people, out

[train]
kind = logreg
learning_rate = 0.1
epochs = 150

[experiment]
seed = 5

[ablation]
rows = full8

[ablation.full8]
groups = sens, people, out
""", encoding="utf-8")
    cfg = str(tmp_path / "exp.ini")

    out1, out2, out_ab = tmp_path / "r1", tmp_path / "r2", tmp_path / "ab"
    assert main(["--config", cfg, "--out-dir", str(out1), "train"]) == EXIT_OK
    assert main(["--config", cfg, "--out-dir", str(out2), "train"]) == EXIT_OK
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    assert main(["--config", cfg, "--out-dir", str(out_ab), "ablate"]) == EXIT_OK
    standalone = load_model(out1 / "model.json")
    row = load_model(out_ab / "model_full8.json")
    for a, b in zip(standalone.layers.weights + standalone.layers.biases,
                    row.layers.weights + row.layers.biases):
        assert np.array_equal(a, b)

    assert main(["--config", cfg, "--out-dir", str(out1), "evaluate",
                 str(out1 / "model.json")]) == EXIT_OK
    test_metrics = json.loads((out1 / "test_metrics.json").read_text())
    csv_lines = (out_ab / "ablation_results.csv").read_text().splitlines()
    full8 = next(l for l in csv_lines if l.startswith("full8,"))
    assert f"{test_metrics['balanced_accuracy']:.4f}" in full8
    assert f"{test_metrics['f1']:.4f}" in full8
    print("\nACCEPTANCE 7 PASS: byte-identical model files across reruns; "
          "ablation row equals standalone train+evaluate")


def test_criterion_8_extraction_robustness(tmp_path, mock_server, monkeypatch):
    monkeypatch.setenv("PRIVLENS_SAFESEARCH_URL",
                       f"http://127.0.0.1:{mock_server.server_port}/")
    ids = ["img_0", "img_1", "img_2"]
    (tmp_path / "manifest.csv").write_text(
        "image_id,label,split\n" + "".join(f"{i},,\n" for i in ids))
    (tmp_path / "refs.csv").write_text(
        "image_id,uri\nimg_0,img_0.jpg\nimg_1,limited.jpg\nimg_2,img_2.jpg\n")
    (tmp_path / "c.ini").write_text("""
[data]
manifest = manifest.csv
image_refs = refs.csv

[extract]
safesearch_max_attempts = 3
safesearch_backoff_base = 0.0
safesearch_rps = 0
""", encoding="utf-8")
    cfg = str(tmp_path / "c.ini")
    out = tmp_path / "out"

    # permanently rate-limited image: partial exit, batch survives
    rc = main(["--config", cfg, "--out-dir", str(out), "extract"])
    assert rc == EXIT_PARTIAL
    lines = (out / "privacy_features.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + img_0 + img_2
    report = json.loads((out / "extraction_report.json").read_text())
    assert list(report["failures"]) == ["img_1"]

    # warm-cache rerun for the successful images: zero new calls for them
    calls_before = mock_server.calls
    (tmp_path / "refs.csv").write_text(  # un-limit img_1 but point at cache-less uri
        "image_id,uri\nimg_0,img_0.jpg\nimg_1,limited.jpg\nimg_2,img_2.jpg\n")
    rc = main(["--config", cfg, "--out-dir", str(out), "extract"])
    assert rc == EXIT_PARTIAL
    # img_0 and img_2 were cached: only img_1's retries hit the server
    assert mock_server.calls == calls_before + 3
    print("\nACCEPTANCE 8 PASS: warm cache issues zero HTTP calls for cached "
          "images; rate-limited image isolated with exit code 2")


@pytest.mark.skip(reason="requires the external image corpus, its official "
                         "split, SafeSearch/detector/scene extractor outputs "
                         "and deep-feature stores (see README, 'Reproducing "
                         "published numbers')")
def test_criterion_9_dataset_reproduction():
    pass
