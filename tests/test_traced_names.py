"""Every name that `perfbench/traced_cli.py` wraps must exist on the package,
and each loader's counter must read that loader's real result: a rename or
a changed return type breaks `perfbench/run.py --trace 1` while every other
test still passes. Only the last test installs wrappers, the classifiers'
ones, to check what their counters count; each is undone after it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from privlens import classifiers

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import traced_cli  # noqa: E402


@pytest.mark.parametrize("path, attr", [(p[0], p[1]) for p in traced_cli.PATCHES],
                         ids=[f"{p[0]}.{p[1]}" for p in traced_cli.PATCHES])
def test_traced_name_resolves(path, attr):
    assert callable(getattr(traced_cli._resolve(path), attr))


# A small valid file for each loader whose result a traced counter reads.
SMALL_FILES = {
    "load_manifest": "image_id,label,split\na,private,train\nb,,\n",
    "load_privacy_store": "image_id,adult,racy,medical,spoofed,violent,people_prob,people_count,"
                          "outdoor_prob\na,VERY_UNLIKELY,,POSSIBLE,LIKELY,UNLIKELY,0.5,1,0.25\n",
    "load_annotations": "image_id,assessor_id,vote\na,u1,PRIVATE\na,u2,PUBLIC\nb,u1,UNDECIDABLE\n",
    "load_deep_store": "#source_tag=rn101,dim=2\nimage_id,v0,v1\na,0.5,1.0\nb,-2,3e-3\n",
    "load_detections": "image_id,class_name,confidence\na,person,0.9\na,dog,0.4\n",
}
COUNTED_LOADERS = [p for p in traced_cli.PATCHES if p[1].startswith("load_") and p[3]]


def test_every_counted_loader_has_a_file():
    assert {p[1] for p in COUNTED_LOADERS} == set(SMALL_FILES)


@pytest.mark.parametrize("path, attr, count", [(p[0], p[1], p[3]) for p in COUNTED_LOADERS],
                         ids=[f"{p[0]}.{p[1]}" for p in COUNTED_LOADERS])
def test_traced_counter_reads_the_loader_result(tmp_path, path, attr, count):
    """A loader whose result the counter cannot read would crash `--trace 1`."""
    file = tmp_path / "input.csv"
    file.write_text(SMALL_FILES[attr], encoding="utf-8")
    counts = count(getattr(traced_cli._resolve(path), attr)(file))
    assert counts and all(type(n) is int and n >= 0 for n in counts.values())


CLASSIFIER_PATCHES = [p for p in traced_cli.PATCHES if p[0] == "privlens.classifiers"]


@pytest.mark.parametrize("batch_size, stop, loss_grad_calls", [
    (None, False, 6),  # one pass per epoch, and one after the last step
    (2 * classifiers.ROW_BLOCK, False, 16),  # and one per mini-batch, 2 an epoch
    (None, True, 5),  # 2 epochs: one validation pass each, then a stop
], ids=["full-batch", "mini-batch", "early-stop"])
def test_loss_grad_calls_count_passes_over_whole_batches(monkeypatch, batch_size, stop,
                                                         loss_grad_calls):
    """`classifiers.loss_grad_calls` counts passes over a whole batch, however
    many row blocks each pass takes, as the traced bench wraps the function."""
    tracer = traced_cli.Tracer()
    for path, attr, name, count in CLASSIFIER_PATCHES:
        owner = traced_cli._resolve(path)
        monkeypatch.setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
    rng = np.random.default_rng(0)
    n = 3 * classifiers.ROW_BLOCK + 1
    X = rng.normal(size=(n, 8))
    y = (X[:, 0] > 0).astype(float)
    val = {}
    if stop:  # labels the training drives the network away from
        val = {"X_val": X[:500], "y_val": 1.0 - y[:500]}
    cfg = classifiers.TrainConfig(learning_rate=0.3, epochs=5, batch_size=batch_size,
                                  early_stop_patience=0 if stop else None)
    _, trace = classifiers.train_mlp(X, y, cfg, [16, 16, 8], **val)
    assert len(trace) == (3 if stop else cfg.epochs + 1)
    assert tracer.counts["classifiers.loss_grad_calls"] == loss_grad_calls
    if batch_size is None and not stop:  # each pass over the train rows: 4 blocks
        assert tracer.counts["classifiers.sigmoid_calls"] == 4 * loss_grad_calls
