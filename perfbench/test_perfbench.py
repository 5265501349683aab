"""The benchmark's checks pass on real CLI outputs and reject tampered ones.

Runs the CLI on small corpora made by the benchmark's own generator (the
same code at a smaller size), then alters one output at a time.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import corpus
import run
from mockserver import MockSafeSearch

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def _cli(config, out, *args, env=None):
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "privlens.cli", "--config", str(config),
                    "--out-dir", str(out), *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    root = tmp_path_factory.mktemp("deep")
    config = corpus.make_corpus("deep-20k", SEED, root / "corpus", n=2000)
    out = root / "out"
    _cli(config, out, "ablate")
    _cli(config, out, "evaluate", str(out / "model_both.json"))
    return root / "corpus", out


@pytest.fixture(scope="module")
def tall(tmp_path_factory):
    root = tmp_path_factory.mktemp("tall")
    config = corpus.make_corpus("tall-200k", SEED, root / "corpus", n=2000)
    out = root / "out"
    _cli(config, out, "train")
    _cli(config, out, "analyze")
    return root / "corpus", out, config


@pytest.fixture(scope="module")
def extract(tmp_path_factory):
    root = tmp_path_factory.mktemp("extract")
    config = corpus.make_corpus("extract-5k", SEED, root / "corpus", n=300)
    out = root / "out"
    with MockSafeSearch(2) as mock:
        env = {"PRIVLENS_SAFESEARCH_URL": mock.url}
        _cli(config, out, "--workers", "2", "extract", env=env)
        cold = (mock.attempts, mock.n429)
        first = checks.digest([out / "privacy_features.csv"])
        mock.reset()
        _cli(config, out, "--workers", "2", "extract", env=env)
        warm = (mock.attempts, mock.n429)
    return root / "corpus", out, cold, warm, first


def _copy(out, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return dst


def _edit_csv(path, row, col, value):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = value(rows[row][col])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_json(path, change):
    doc = json.loads(path.read_text("utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), "utf-8")


def test_untampered_outputs_pass(deep, tall, extract):
    checks.check_ablate(*deep)
    checks.check_evaluate(*deep, deep[1] / "model_both.json")
    checks.check_train(*tall)
    checks.check_analyze(*tall[:2])
    root, out, cold, warm, first = extract
    checks.check_extract(root, out)
    checks.check_http(*cold, checks.expected_http(root), "cold")
    checks.check_http(*warm, (0, 0), "warm")
    checks.check_unchanged(first, checks.digest([out / "privacy_features.csv"]), "warm")


def _flip_weights(doc):
    doc["params"]["weights"] = [-w for w in doc["params"]["weights"]]


def _bump(counts):
    counts["tp"] += 1
    counts["fn"] -= 1


DEEP_TAMPERS = {
    "ablation BA cell": ("ablation_results.csv",
                         lambda p: _edit_csv(p, 1, 6, lambda v: f"{float(v) - 0.01:.4f}")),
    "ablation F1 cell": ("ablation_results.csv",
                         lambda p: _edit_csv(p, 3, 7, lambda v: f"{float(v) + 0.01:.4f}")),
    "model weights": ("model_interp.json", lambda p: _edit_json(p, _flip_weights)),
    "model feature spec": ("model_deep.json",
                           lambda p: _edit_json(p, lambda d: d["feature_spec"].update(
                               source_tag="other"))),
    "evaluate counts": ("test_metrics.json", lambda p: _edit_json(p, lambda d: _bump(d["counts"]))),
}


@pytest.mark.parametrize("tamper", sorted(DEEP_TAMPERS))
def test_deep_checks_reject(deep, tmp_path, tamper):
    root, out = deep
    out = _copy(out, tmp_path)
    name, change = DEEP_TAMPERS[tamper]
    change(out / name)
    with pytest.raises(checks.CheckFailed):
        checks.check_ablate(root, out)
        checks.check_evaluate(root, out, out / "model_both.json")


def _edit_trace(p, row, value):
    _edit_csv(p, row, 1, value)


TALL_TAMPERS = {
    "trace non-finite": ("loss_trace.csv", lambda p: _edit_trace(p, 5, lambda v: "nan")),
    "trace rises": ("loss_trace.csv", lambda p: _edit_trace(p, -1, lambda v: "5.0")),
    "trace last loss": ("loss_trace.csv",
                        lambda p: _edit_trace(p, -1, lambda v: repr(float(v) * (1 + 1e-6)))),
    "training log counts": ("training_log.json", lambda p: _edit_json(
        p, lambda d: _bump(d["metrics"]["val"]["counts"]))),
    "controversial ids": ("controversial.json",
                          lambda p: _edit_json(p, lambda d: d["image_ids"].pop())),
    "people breakdown": ("people_breakdown.json",
                         lambda p: _edit_json(p, lambda d: d.update(none=d["none"] + 1e-9))),
    "cumulative curve": ("cumulative_private.json",
                         lambda p: _edit_json(p, lambda d: d["indoor"][0].__setitem__(1, 0.5))),
    "sensitivity counts": ("sensitivity_distribution.json",
                           lambda p: _edit_json(p, lambda d: d["counts"]["racy"]["LIKELY"]
                                                .update(private=0))),
    "conditional prob": ("conditional_private.json",
                         lambda p: _edit_json(p, lambda d: d["adult"][2].__setitem__(2, 0))),
    "group prob": ("group_probabilities.json",
                   lambda p: _edit_json(p, lambda d: d[5].update(share=0.0))),
}


@pytest.mark.parametrize("tamper", sorted(TALL_TAMPERS))
def test_tall_checks_reject(tall, tmp_path, tamper):
    root, out, config = tall
    out = _copy(out, tmp_path)
    name, change = TALL_TAMPERS[tamper]
    change(out / name)
    with pytest.raises(checks.CheckFailed):
        checks.check_train(root, out, config)
        checks.check_analyze(root, out)


EXTRACT_TAMPERS = {
    "sensitivity level": (1, 2, lambda v: "VERY_LIKELY" if v != "VERY_LIKELY" else "UNLIKELY"),
    "people count": (4, 7, lambda v: str(int(v) + 1)),
    "people prob": (6, 6, lambda v: f"{float(v) + 1e-6:.6f}"),
    "outdoor prob": (7, 8, lambda v: f"{float(v) + 2e-6:.6f}"),
    "image id": (9, 0, lambda v: v + "x"),
}


@pytest.mark.parametrize("tamper", sorted(EXTRACT_TAMPERS))
def test_extract_check_rejects(extract, tmp_path, tamper):
    root, out = extract[:2]
    out = _copy(out, tmp_path)
    row, col, value = EXTRACT_TAMPERS[tamper]
    _edit_csv(out / "privacy_features.csv", row, col, value)
    with pytest.raises(checks.CheckFailed):
        checks.check_extract(root, out)


def test_extract_check_rejects_reported_failure(extract, tmp_path):
    root, out = extract[:2]
    out = _copy(out, tmp_path)
    _edit_json(out / "extraction_report.json",
               lambda d: d["failures"].update(img_000001="RateLimited: HTTP 429"))
    with pytest.raises(checks.CheckFailed):
        checks.check_extract(root, out)


def test_http_and_rerun_checks_reject(extract, tmp_path):
    root, out, cold, warm, first = extract
    with pytest.raises(checks.CheckFailed):
        checks.check_http(cold[0] - 1, cold[1], checks.expected_http(root), "cold")
    with pytest.raises(checks.CheckFailed):
        checks.check_http(1, 0, (0, 0), "warm")
    out = _copy(out, tmp_path)
    (out / "privacy_features.csv").write_text(
        (out / "privacy_features.csv").read_text("utf-8") + "\n", "utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.check_unchanged(first, checks.digest([out / "privacy_features.csv"]), "warm")


def test_corpus_is_seeded(tmp_path):
    a = corpus.make_corpus("extract-5k", 5, tmp_path / "a", n=50)
    b = corpus.make_corpus("extract-5k", 5, tmp_path / "b", n=50)
    c = corpus.make_corpus("extract-5k", 6, tmp_path / "c", n=50)
    names = sorted(p.name for p in a.parent.iterdir())
    for name in names:
        assert (a.parent / name).read_bytes() == (b.parent / name).read_bytes()
    assert (a.parent / "scenes.csv").read_bytes() != (c.parent / "scenes.csv").read_bytes()


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
