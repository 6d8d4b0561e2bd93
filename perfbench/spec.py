"""What the benchmark runs and reports: workloads, metrics, units and bounds.

`BENCHMARK.json` at the repository root is generated from these tables by
`python3 perfbench/run.py --write-manifest`, and a test keeps the two equal.
This module imports nothing from numpy or dgcf, so the manifest can be
written without the package.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 40
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# The frozen corpus of tests/test_acceptance.py (check 6/7); the benchmark's
# --seed takes the place of its `seed`, so seed 0 regenerates it exactly.
CORPUS = dict(n_users=1300, grid_side=28, items_per_cell=3, restart=0.3,
              median_activity=22.0, activity_sigma=0.5, zipf_s=0.3,
              noise=0.02, min_activity=15)
SMOKE_CORPUS = dict(n_users=160, grid_side=8, items_per_cell=2, restart=0.3,
                    median_activity=22.0, activity_sigma=0.5, zipf_s=0.3,
                    noise=0.02, min_activity=15)
K_CORE = 10
TEST_RATIO = 0.2
TOP = 10  # items per recommend request (the CLI default)
EVAL_K = 20


@dataclass(frozen=True)
class Workload:
    """One workload: a training call, and evaluate and recommend on a model.

    `train_args` are `dgcf train` flags. `in_process_fit` runs them through
    `dgcf.train.fit` directly instead of the CLI. Without `serve_args` the
    serving kinds use the model the training call writes; with them, set-up
    writes the served model through CLI `train` with those flags, and the
    training call writes a file of its own.
    """

    name: str
    why: str
    train_args: tuple[str, ...]
    in_process_fit: bool
    serve_args: tuple[str, ...] = ()

    def flag(self, key: str) -> str:
        return self.train_args[self.train_args.index("--" + key) + 1]

    @property
    def triples_per_call(self) -> int:
        return (int(self.flag("epochs")) * int(self.flag("batches-per-epoch"))
                * int(self.flag("batch-size")))


# SHARE splits --seconds between the kinds of operation; MINIMUM is the least
# count of each kind per run: at least 100 recommends, so 10 lie beyond p90.
SHARE = dict(train=0.25, evaluate=0.2, recommend=0.35, cold=0.2)
MINIMUM = dict(train=3, evaluate=3, recommend=100, cold=5)

WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="train_deep",
            why=("fit of model ours at L=8, d=64, batch 1024: 18 spmm calls and 8 "
                 "per-layer mixes and transforms per step, so graph, model and "
                 "backward work dominate"),
            train_args=("--model", "ours", "--layers", "8", "--dim", "64",
                        "--alpha", "0.1", "--beta", "0.1", "--activation", "relu",
                        "--embedding-mode", "sw", "--batch-size", "1024",
                        "--epochs", "2", "--batches-per-epoch", "4", "--eval-every", "0"),
            in_process_fit=True),
        Workload(
            name="wide_serve",
            why=("CLI train of bprmf at batch 8192 (no graph products: bincount scatter, "
                 "loss, sampling, Adam, file writes) beside the read path of a saved L=4 "
                 "model: load_split, load_model, ranking"),
            train_args=("--model", "bprmf", "--dim", "64", "--batch-size", "8192",
                        "--epochs", "2", "--batches-per-epoch", "8", "--eval-every", "0"),
            in_process_fit=False,
            serve_args=("--model", "ours", "--layers", "4", "--dim", "64",
                        "--batch-size", "1024", "--epochs", "1",
                        "--batches-per-epoch", "8", "--eval-every", "0")),
    ]
}

# Smaller counts for the smoke mode, which the benchmark's own tests run.
SMOKE_MINIMUM = dict(train=2, evaluate=2, recommend=12, cold=1)
SETUP_REPEATS = 3

# (name, unit, better, bound)
END_TO_END = [
    ("train_triples_per_s", "triples/s", "higher", 0.25),
    ("evaluate_s", "s", "lower", 0.25),
    ("recommend_ms_mean", "ms", "lower", 0.25),
    ("recommend_ms_p90", "ms", "lower", 0.25),
    ("recommend_cold_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("graph.spmm.ms", "ms", "lower"),
    ("graph.spmm.calls_per_step", "count", "lower"),
    ("graph.spmm.share", "ratio", "higher"),
    ("graph.spmm.solo_ms", "ms", "lower"),
    ("graph.spmm_floor_ms", "ms", "lower"),
    ("model.forward.ms", "ms", "lower"),
    ("model.forward.self_ms", "ms", "lower"),
    ("train.backward.ms", "ms", "lower"),
    ("train.backward.self_ms", "ms", "lower"),
    ("train.step.ms", "ms", "lower"),
    ("train.step.untraced_ms", "ms", "lower"),
    ("train.step_over_floor", "ratio", "lower"),
    ("train.step.coverage", "ratio", "higher"),
    ("data.sample_bpr_triples.ms", "ms", "lower"),
    ("train.bpr_loss.ms", "ms", "lower"),
    ("train.optimizer_step.ms", "ms", "lower"),
    ("baselines.bprmf_grads.ms", "ms", "lower"),
    ("baselines.bprmf_loss.ms", "ms", "lower"),
    ("train.step.alloc_peak_mb", "MB", "lower"),
    ("model.forward.alloc_peak_mb", "MB", "lower"),
    ("modelfile.save_model.ms", "ms", "lower"),
    ("model.score_all_items.ms", "ms", "lower"),
    ("evaluate.rank_items.ms", "ms", "lower"),
    ("evaluate.evaluate_model.self_ms", "ms", "lower"),
    ("evaluate.users", "count", "higher"),
    ("data.load_split.ms", "ms", "lower"),
    ("modelfile.load_model.ms", "ms", "lower"),
    ("train.laplacian_for.ms", "ms", "lower"),
    ("cli.model_embeddings.ms", "ms", "lower"),
    ("cli.recommend.self_ms", "ms", "lower"),
    ("cli.import_s", "s", "lower"),
    ("data.preprocess_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
