"""Benchmark of the privlens CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload deep-20k --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The run writes the workload's corpus from
--seed under perfbench/work/, then runs the real CLI from src/ as child
processes, closed loop, one command at a time, in whole rounds until
--seconds of command time have been measured. It checks every output
against checks.py and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The line before it holds the
same figures under each command's own name, with the samples behind them.

--trace 0 gives the end-to-end metrics. --trace 1 runs the same rounds
through traced_cli.py and gives the per-layer metrics instead; its times
include the tracing overhead, so end-to-end figures come only from --trace 0.
"""

from __future__ import annotations

import os

# One BLAS thread here and in every child. With OpenBLAS's default of two
# threads on a two-core machine, CPU time and wall time of a command moved
# apart from run to run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
from mockserver import MockSafeSearch  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
TRACED_CLI = HERE / "traced_cli.py"
SPAWN = HERE / "spawn.py"

EXTRACT_WORKERS = 2  # nproc on the reference machine; see README
# set-up is timed this many times before the rounds and again after them,
# so that its median spans the run
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# no new round starts once the run would pass this, so a run ends well
# inside 180 s even on a slow machine
DEADLINE_S = 140

END_TO_END = {
    "setup_s": "s",
    "first_command_s": "s",
    "second_command_s": "s",
    "images_per_s": "img/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose summed duration it reports
LAYER_TIMES = {
    f"{span}_s": span for span in (
        "config.load_config", "config.load_dataset",
        "data_io.load_manifest", "data_io.load_privacy_store", "data_io.load_annotations",
        "data_io.load_deep_store", "data_io.build_design_matrix",
        "features.assemble_features", "features.fit_standardizer",
        "features.apply_standardizer",
        "classifiers.train_logreg", "classifiers.train_mlp", "classifiers.loss_grad",
        "classifiers.sigmoid", "classifiers.predict_label", "classifiers.save_model",
        "classifiers.load_model",
        "metrics.from_labels",
        "analysis.controversial_image_ids", "analysis.controversial_people_breakdown",
        "analysis.cumulative_private_by_people", "analysis.sensitivity_label_distribution",
        "analysis.private_prob_given_sensitivity", "analysis.group_privacy_probabilities",
        "analysis.write",
        "extractors.run_extraction", "extractors.outdoor_probability",
        "extractors.load_detections",
    )
}
# per-layer count metric -> traced counter
LAYER_COUNTS = {
    "data_io.build_design_matrix_calls": "data_io.build_design_matrix_calls",
    "data_io.rows_parsed": "data_io.rows_parsed",
    "features.assemble_features_calls": "features.assemble_features_calls",
    "classifiers.loss_grad_calls": "classifiers.loss_grad_calls",
    "classifiers.sigmoid_calls": "classifiers.sigmoid_calls",
    "analysis.controversial_image_ids_calls": "analysis.controversial_image_ids_calls",
    "extractors.annotate_calls": "extractors.annotate_calls",
    "extractors.http_attempts": "extractors.http_calls",
    "extractors.http_429": "extractors.http_429",
    "extractors.cache_hits": "extractors.cache_hit_calls",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "extractors.annotate_p50_ms": "ms",
    "extractors.annotate_p95_ms": "ms",
    "mock.busy_s": "s",
    "cli.self_s": "s",
}


@dataclass
class Command:
    name: str
    args: list[str]
    outputs: list[str]
    cold: bool = False  # starts from an empty output directory


_ANALYSES = ["controversial.json", "people_breakdown.json", "cumulative_private.json",
             "sensitivity_distribution.json", "conditional_private.json",
             "group_probabilities.json"]
_EXTRACTED = ["privacy_features.csv", "extraction_report.json"]

# Each workload's round: its two commands, each run `repeats` times in a row.
# They give first_command_s and second_command_s as medians over all rounds.
# The short second commands repeat so that their median spans more than one
# brief swing in machine speed.
WORKLOADS = {
    # the paper's comparison: interpretable, deep and both rows over a wide
    # deep store, then scoring the "both" model
    "deep-20k": [
        (Command("ablate", ["ablate"], [f"model_{r}.json" for r in corpus.ABLATION_ROWS]
                 + ["ablation_results.csv", "ablation_table.txt"]), 1),
        (Command("evaluate", ["evaluate", "{out}/model_both.json"], ["test_metrics.json"]), 3),
    ],
    # many rows of the eight features with votes: MLP training and the vote
    # analyses; no deep store
    "tall-200k": [
        (Command("train", ["train"], ["model.json", "loss_trace.csv", "training_log.json"]), 1),
        (Command("analyze", ["analyze"], _ANALYSES), 1),
    ],
    # the only workload that reaches extractors and the HTTP client: an empty
    # cache (one request per image, retries for 429s), then a full one
    "extract-5k": [
        (Command("extract_cold", ["--workers", str(EXTRACT_WORKERS), "extract"], _EXTRACTED,
                 cold=True), 1),
        (Command("extract_warm", ["--workers", str(EXTRACT_WORKERS), "extract"], _EXTRACTED), 3),
    ],
}


@dataclass
class Child:
    wall_s: float
    exit_code: int
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, log_path: Path) -> Child:
    """Run one child to its end through spawn.py; its wall time, exit code
    and own peak RSS."""
    result_path = log_path.with_suffix(".result.json")
    subprocess.run([sys.executable, str(SPAWN), str(result_path), str(log_path),
                    str(CHILD_TIMEOUT_S), "--", *argv], env=env, cwd=ROOT, check=True)
    result = json.loads(result_path.read_text("utf-8"))
    return Child(result["wall_s"], result["exit_code"], result["peak_rss_mb"])


def speed_probe() -> float:
    """CPU seconds of a fixed pure-Python loop: how fast this machine is now."""
    start = time.process_time()
    x = 0
    for i in range(3_000_000):
        x += i & 7
    return time.process_time() - start


@dataclass
class Run:
    config: Path
    corpus_dir: Path
    out: Path
    logs: Path
    env: dict
    trace: bool
    mock: MockSafeSearch | None = None
    walls: dict = field(default_factory=lambda: defaultdict(list))
    digests: dict = field(default_factory=dict)
    layer_rounds: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check_first(self, cmd: Command) -> None:
        """The independent check of a command's first outputs."""
        root, out = self.corpus_dir, self.out
        if cmd.name == "ablate":
            checks.check_ablate(root, out)
        elif cmd.name == "evaluate":
            checks.check_evaluate(root, out, out / "model_both.json")
        elif cmd.name == "train":
            checks.check_train(root, out, self.config)
        elif cmd.name == "analyze":
            checks.check_analyze(root, out)
        elif cmd.name == "extract_cold":
            checks.check_extract(root, out)

    def check(self, cmd: Command) -> None:
        if self.mock is not None:
            want = checks.expected_http(self.corpus_dir) if cmd.cold else (0, 0)
            checks.check_http(self.mock.attempts, self.mock.n429, want, cmd.name)
        digest = checks.digest(self.out / name for name in cmd.outputs)
        # the warm extraction must write exactly what the cold one wrote
        key = "extract" if cmd.name.startswith("extract") else cmd.name
        if key not in self.digests:
            self.check_first(cmd)
            self.digests[key] = digest
        else:
            checks.check_unchanged(self.digests[key], digest, cmd.name)

    def run_round(self, round_spec: list[tuple[Command, int]], round_no: int) -> None:
        traces = []
        # a traced round runs each command once, so that per-layer figures
        # describe one pass of the workload
        for cmd, k in ((c, k) for c, repeats in round_spec
                       for k in range(1 if self.trace else repeats)):
            if cmd.cold:
                shutil.rmtree(self.out, ignore_errors=True)
            self.out.mkdir(parents=True, exist_ok=True)
            args = [a.format(out=self.out) for a in cmd.args]
            cli = ["--config", str(self.config), "--out-dir", str(self.out), *args]
            tag = f"{cmd.name}.{round_no}.{k}"
            trace_path = self.logs / f"{tag}.trace.json"
            if self.trace:
                argv = [sys.executable, str(TRACED_CLI), str(trace_path), *cli]
            else:
                argv = [sys.executable, "-m", "privlens.cli", *cli]
            if self.mock is not None:
                self.mock.reset()
            child = run_child(argv, self.env, self.logs / f"{tag}.log")
            self.attempted += 1
            self.walls[cmd.name].append(child.wall_s)
            self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb)
            if child.exit_code != 0:
                self.failed += 1
                self.problems.append(f"{cmd.name} exited with {child.exit_code}")
                continue
            if self.trace:
                trace = json.loads(trace_path.read_text("utf-8"))
                trace["mock_busy_s"] = self.mock.busy_s if self.mock is not None else 0.0
                traces.append(trace)
            try:
                self.check(cmd)
            except Exception as exc:  # any fault in an output fails the run, not the benchmark
                self.problems.append(f"{cmd.name}: {type(exc).__name__}: {exc}")
        if self.trace:
            self.layer_rounds.append(layer_metrics(traces))


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one round from the traces of its commands."""
    busy = defaultdict(float)
    counts = Counter()
    annotate_ms = []
    self_s = mock_busy = 0.0
    for trace in traces:
        counts.update(trace["counts"])
        mock_busy += trace["mock_busy_s"]
        spans = trace["spans"]
        for _, name, start, end, _ in spans:
            busy[name] += end - start
            if name == "extractors.annotate":
                annotate_ms.append((end - start) * 1000.0)
        main_id, _, main_start, main_end, _ = next(s for s in spans if s[1] == "cli.main")
        children = [(s, e) for _, _, s, e, parent in spans if parent == main_id]
        self_s += (main_end - main_start) - _covered(children)
    metrics = {name: busy[span] for name, span in LAYER_TIMES.items()}
    metrics.update({name: counts[key] for name, key in LAYER_COUNTS.items()})
    if len(annotate_ms) >= 2:
        q = statistics.quantiles(annotate_ms, n=100, method="inclusive")
        metrics["extractors.annotate_p50_ms"] = q[49]
        metrics["extractors.annotate_p95_ms"] = q[94]
    else:
        metrics["extractors.annotate_p50_ms"] = metrics["extractors.annotate_p95_ms"] = 0.0
    metrics["mock.busy_s"] = mock_busy
    metrics["cli.self_s"] = self_s
    return metrics


def measure_setup(run: Run, repeats: int) -> list[float]:
    """Wall times of a fresh interpreter importing the CLI and loading the config."""
    argv = [sys.executable, "-c",
            "import sys; from privlens.cli import load_config; load_config(sys.argv[1])",
            str(run.config)]
    samples = []
    for _ in range(repeats):
        child = run_child(argv, run.env, run.logs / "setup.log")
        if child.exit_code != 0:
            run.problems.append(f"set-up child exited with {child.exit_code}")
        samples.append(child.wall_s)
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "privlens" / "cli.py").is_file():
        print(f"error: no privlens sources under {SRC}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    config = corpus.make_corpus(args.workload, args.seed, work / "corpus")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRIVLENS_")}
    env["PYTHONPATH"] = str(SRC)
    run = Run(config, work / "corpus", work / "out", work / "logs", env, bool(args.trace))
    probe_cpu_s = [speed_probe()]
    setup = []
    if not run.trace:
        measure_setup(run, 1)  # the first start compiles the package's bytecode
        setup += measure_setup(run, SETUP_REPEATS)

    endpoint = (MockSafeSearch(EXTRACT_WORKERS) if args.workload == "extract-5k"
                else contextlib.nullcontext())
    with endpoint as mock:
        if mock is not None:
            env["PRIVLENS_SAFESEARCH_URL"] = mock.url
            run.mock = mock
        rounds = 0
        while not run.problems:
            round_start = time.perf_counter()
            run.run_round(commands, rounds)
            rounds += 1
            measured = sum(sum(w) for w in run.walls.values())
            now = time.perf_counter()
            if measured >= args.seconds or (now - t0) + (now - round_start) > DEADLINE_S:
                break
    if not run.trace:
        setup += measure_setup(run, SETUP_REPEATS)
    probe_cpu_s.append(speed_probe())

    n_images = corpus.SIZES[args.workload]
    correct = not run.problems
    named = {f"{name}_s": {"value": statistics.median(w), "unit": "s", "samples": w}
             for name, w in run.walls.items()}
    if run.trace:
        # median_low keeps a count a whole number
        metrics = {name: {"value": statistics.median_low(r[name] for r in run.layer_rounds)
                          if run.layer_rounds else 0, "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        first, second = (statistics.median(run.walls[c.name]) if run.walls[c.name] else 0.0
                         for c, _ in commands)
        values = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "first_command_s": first,
            "second_command_s": second,
            "images_per_s": n_images * 2 / (first + second) if first and second else 0.0,
            "peak_rss_mb": run.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "rounds": rounds, "commands": named, "setup_samples_s": setup,
        "probe_cpu_s": probe_cpu_s, "images_attempted": n_images * run.attempted,
        "images_failed": n_images * run.failed, "problems": run.problems,
        "run_s": time.perf_counter() - t0,
    }
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
