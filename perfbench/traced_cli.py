"""Run the privlens CLI with spans and counts recorded at each module boundary.

Usage: python3 perfbench/traced_cli.py TRACE.json <privlens CLI arguments>

The public functions of each module are wrapped where their caller looks
them up (``cli`` imports ``build_design_matrix`` by name, so the wrapper goes
on ``privlens.cli.build_design_matrix``). Spans (name, start, end, parent)
and counts stay in memory, are safe to record from the extraction worker
threads, and are written to TRACE.json when the command ends. Nothing in the
package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread's first span was caused by whatever the main
        # thread is inside of, such as run_extraction
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn, count=None):
        """`fn` recording one span per call; `count(result)` adds to the counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, name, start, end, parent))
                    self.counts[name + "_calls"] += 1
            if count is not None:
                extra = count(result)
                with self._lock:
                    self.counts.update(extra)
            return result

        return traced

    def to_dict(self) -> dict:
        with self._lock:
            return {"spans": list(self.spans), "counts": dict(self.counts)}


def _rows(n):
    return {"data_io.rows_parsed": n}


# (object path, attribute, span name, counter on the result)
PATCHES = [
    ("privlens.cli", "load_config", "config.load_config", None),
    ("privlens.cli", "load_dataset", "config.load_dataset", None),
    ("privlens.config", "load_manifest", "data_io.load_manifest", lambda r: _rows(len(r))),
    ("privlens.config", "load_privacy_store", "data_io.load_privacy_store",
     lambda r: _rows(len(r))),
    ("privlens.config", "load_annotations", "data_io.load_annotations",
     lambda r: _rows(sum(len(a.votes) for a in r.values()))),
    ("privlens.config", "load_deep_store", "data_io.load_deep_store",
     lambda r: _rows(len(r[1]))),
    ("privlens.cli", "load_deep_store", "data_io.load_deep_store", lambda r: _rows(len(r[1]))),
    ("privlens.cli", "build_design_matrix", "data_io.build_design_matrix", None),
    ("privlens.data_io", "assemble_features", "features.assemble_features", None),
    ("privlens.classifiers", "fit_standardizer", "features.fit_standardizer", None),
    ("privlens.classifiers", "apply_standardizer", "features.apply_standardizer", None),
    ("privlens.cli", "train_logreg", "classifiers.train_logreg", None),
    ("privlens.cli", "train_mlp", "classifiers.train_mlp", None),
    ("privlens.classifiers", "logreg_loss_and_grad", "classifiers.loss_grad", None),
    ("privlens.classifiers", "mlp_loss_and_grad", "classifiers.loss_grad", None),
    ("privlens.classifiers", "sigmoid", "classifiers.sigmoid", None),
    ("privlens.cli", "predict_label", "classifiers.predict_label", None),
    ("privlens.cli", "save_model", "classifiers.save_model", None),
    ("privlens.cli", "load_model", "classifiers.load_model", None),
    ("privlens.metrics.MetricsReport", "from_labels", "metrics.from_labels", None),
    ("privlens.analysis", "controversial_image_ids", "analysis.controversial_image_ids", None),
    ("privlens.analysis", "controversial_people_breakdown",
     "analysis.controversial_people_breakdown", None),
    ("privlens.analysis", "cumulative_private_by_people",
     "analysis.cumulative_private_by_people", None),
    ("privlens.analysis", "sensitivity_label_distribution",
     "analysis.sensitivity_label_distribution", None),
    ("privlens.analysis", "private_prob_given_sensitivity",
     "analysis.private_prob_given_sensitivity", None),
    ("privlens.analysis", "group_privacy_probabilities",
     "analysis.group_privacy_probabilities", None),
    ("privlens.analysis", "write_json", "analysis.write", None),
    ("privlens.analysis", "write_csv", "analysis.write", None),
    ("privlens.extractors", "run_extraction", "extractors.run_extraction", None),
    ("privlens.extractors", "load_detections", "extractors.load_detections",
     lambda r: _rows(sum(len(d) for d in r.values()))),
    ("privlens.extractors", "outdoor_probability", "extractors.outdoor_probability", None),
    ("privlens.extractors.SafeSearchClient", "annotate", "extractors.annotate", None),
    ("privlens.extractors.SafeSearchClient", "_requests_transport", "extractors.http",
     lambda r: {"extractors.http_429": int(r[0] == 429)}),
    # from_dict runs only when a cached response is read
    ("privlens.extractors.SafeSearchResult", "from_dict", "extractors.cache_hit", None),
]


def _resolve(path: str):
    """A module, or a class given as `module.Class`."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, cls = path.rsplit(".", 1)
        return getattr(importlib.import_module(module), cls)


def install(tracer: Tracer) -> None:
    for path, attr, name, count in PATCHES:
        owner = _resolve(path)
        if isinstance(owner, type) and isinstance(owner.__dict__.get(attr), classmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(name, getattr(owner, attr), count)))
        else:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from privlens import cli

    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
