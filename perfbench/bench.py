"""One benchmark run of one workload: set-up, timed phases, checks, metrics.

Every workload runs the same four kinds of operation: train (one training
call), and on a saved model evaluate (`evaluate_model` over all users with a
test set), recommend (in-process `dgcf.cli.main`, closed loop, one client)
and cold (a fresh `python -m dgcf.cli recommend` process). The workloads
differ in the models and in how --seconds is shared out. The kinds take
turns in many short rounds, so each one samples the whole run and slow drift
of the machine's speed reaches every metric alike.

An end-to-end run measures in WORKERS child processes, one after the other,
each doing an equal part of the run on the same set-up. One process keeps
one level of speed for its whole life, and two processes doing the same work
differ by up to 25% (memory placement and layout); averaging over several of
them narrows that. Only one process runs operations at any time.

Operation times are averaged over the run, not taken at their median. On a
shared host the speed switches between a fast and a slow level for tens of
seconds at a time, so one run's times are a mixture of two levels; their
median jumps from one level to the other as the mixture shifts, while their
mean follows the share of slow time smoothly.

The measured path looks every dgcf function up through its module at call
time, so a traced run sees it. The output checks use the references bound
below at import, so tracing never observes them.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from dgcf import cli, evaluate, modelfile, train
from dgcf.data import load_split
from dgcf.evaluate import rank_items
from dgcf.graph import spmm
from dgcf.model import Hyperparams, forward, score_all_items
from dgcf.modelfile import load_model
from dgcf.synthetic import walk_interactions
from dgcf.train import TrainConfig, laplacian_for

import spec
from spans import STEP, Tracer, summarize

ROUNDS = 12
WORKERS = 3
KINDS = ("train", "evaluate", "recommend", "cold")  # train first: it may write the served model
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dgcf.cli; "
                "print(time.perf_counter() - t)")


class BenchRun:
    def __init__(self, workload: spec.Workload, seed: int, seconds: float, smoke: bool,
                 root: Path, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.root = root
        self.work = work
        self.minimum = spec.SMOKE_MINIMUM if smoke else spec.MINIMUM
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None
        self.ref_train = None  # (losses, fingerprint) every training call must repeat
        self.ref_metrics = None
        self.expected: dict[str, list[str]] = {}
        self.e_star = None
        self.users_rng = np.random.default_rng(seed)

    # -- bookkeeping -------------------------------------------------------
    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"FAILED: {what}", file=sys.stderr)

    def interleave(self, kinds, seconds: float, minimum: dict) -> dict[str, list[float]]:
        """Run the kinds in turn, in ROUNDS rounds, and time each operation.

        By the end of round r each kind has used r/ROUNDS of its share of
        `seconds` and done r/ROUNDS of its minimum count, so every kind
        samples the whole run while a block of one kind keeps its caches warm.
        """
        times: dict[str, list[float]] = {k: [] for k in kinds}
        used = dict.fromkeys(kinds, 0.0)
        count = dict.fromkeys(kinds, 0)
        for r in range(1, ROUNDS + 1):
            for kind in kinds:
                while (used[kind] < seconds * spec.SHARE[kind] * r / ROUNDS
                       or count[kind] < math.ceil(minimum[kind] * r / ROUNDS)):
                    count[kind] += 1
                    t0 = time.perf_counter()
                    dt = self.run_op(kind)
                    if dt is not None:
                        times[kind].append(dt)
                    used[kind] += time.perf_counter() - t0
        for kind, ts in times.items():
            if not ts:
                raise RuntimeError(f"every {kind} operation failed")
        return times

    def run_op(self, kind: str) -> float | None:
        """One checked operation; its measured seconds, or None if it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        ops = {"train": self.train_op, "evaluate": self.evaluate_op,
               "recommend": self.recommend_op, "cold": self.cold_op}
        try:
            return ops[kind]()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{kind} operation raised {exc!r}")
            return None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    # -- set-up ------------------------------------------------------------
    def setup(self, dest: Path) -> tuple[float, float]:
        """Corpus, CLI preprocess, workload inputs; returns (total s, preprocess s)."""
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        t0 = time.perf_counter()
        corpus = spec.SMOKE_CORPUS if self.smoke else spec.CORPUS
        raw = walk_interactions(**corpus, seed=self.seed)
        corpus_path = dest / "corpus.tsv"
        corpus_path.write_text("".join(f"{u}\t{i}\n" for u, i in raw.pairs), encoding="utf-8")
        t1 = time.perf_counter()
        _quiet(cli.main, ["preprocess", "--input", str(corpus_path), "--out", str(dest / "ds"),
                          "--k-core", str(spec.K_CORE), "--test-ratio", str(spec.TEST_RATIO),
                          "--seed", str(self.seed)])
        t2 = time.perf_counter()
        self.attach(dest)
        if self.w.serve_args:
            _quiet(cli.main, self.train_argv(self.w.serve_args, self.serve_path,
                                             dest / "serve.log.jsonl"))
        return time.perf_counter() - t0, t2 - t1

    def attach(self, dest: Path) -> None:
        """Use the files of the set-up in `dest`."""
        self.dest = dest
        self.data_dir = dest / "ds"
        self.train_path = dest / "train.dgcf"
        self.serve_path = dest / "serve.dgcf" if self.w.serve_args else self.train_path
        self.split = load_split(self.data_dir)

    def setup_dir(self, k: int) -> Path:
        return self.work / f"setup{k}"

    @property
    def setup_repeats(self) -> int:
        return 1 if self.smoke else spec.SETUP_REPEATS

    def run_setups(self) -> tuple[list[float], list[float]]:
        """Set up several times and keep the last one's files."""
        totals, pre = [], []
        for k in range(self.setup_repeats):
            total, p = self.setup(self.setup_dir(k))
            totals.append(total)
            pre.append(p)
            if k:
                shutil.rmtree(self.setup_dir(k - 1))
        return totals, pre

    # -- training ----------------------------------------------------------
    def train_argv(self, args, out: Path, log: Path) -> list[str]:
        return (["train", "--data", str(self.data_dir), "--out", str(out), "--log", str(log)]
                + list(args) + ["--seed", str(self.seed)])

    def _train_call(self) -> tuple[float, list[float], str]:
        """One training call: (seconds, epoch losses, hash of the model file)."""
        args = list(self.w.train_args) + ["--seed", str(self.seed)]
        if self.w.in_process_fit:
            hyper, config = _fit_settings(args)
            t0 = time.perf_counter()
            params, log = train.fit(self.split, hyper, config)
            dt = time.perf_counter() - t0
            modelfile.save_model(self.train_path, "ours", params, hyper)
            losses = [e["loss"] for e in log]
        else:
            log_path = self.dest / "train.log.jsonl"
            argv = self.train_argv(self.w.train_args, self.train_path, log_path)
            t0 = time.perf_counter()
            with self.span("cli.train"):
                _quiet(cli.main, argv)
            dt = time.perf_counter() - t0
            losses = [json.loads(line)["loss"]
                      for line in log_path.read_text(encoding="utf-8").splitlines()]
        return dt, losses, hashlib.sha256(self.train_path.read_bytes()).hexdigest()

    def train_op(self) -> float:
        """One training call; its losses are finite and repeat bit-for-bit."""
        dt, losses, fingerprint = self._train_call()
        if not losses or not all(math.isfinite(x) for x in losses):
            self.fail(f"non-finite or missing epoch losses {losses}")
        if self.ref_train is None:
            self.ref_train = (losses, fingerprint)
        elif (losses, fingerprint) != self.ref_train:
            self.fail("training call did not repeat its losses and parameters bit-for-bit")
        return dt

    # -- serving -----------------------------------------------------------
    def prepare_serving(self) -> None:
        """Embeddings of the saved model, computed without the CLI for the checks."""
        if self.e_star is not None:
            return
        record = load_model(self.serve_path)
        self.e_star = forward(record.params, laplacian_for(self.split), record.hyper).E_star
        self.expected.clear()
        self.item_token = {idx: tok for tok, idx in self.split.item_map.items()}
        self.user_tokens = sorted(self.split.user_map)
        self.test_users = sum(1 for t in self.split.test if t)

    def evaluate_op(self) -> float:
        """One evaluate_model; every repeat returns identical metrics."""
        self.prepare_serving()
        t0 = time.perf_counter()
        metrics = evaluate.evaluate_model(self.e_star, self.split, k=spec.EVAL_K)
        dt = time.perf_counter() - t0
        if self.ref_metrics is None:
            self.ref_metrics = metrics
            if metrics.users_evaluated != self.test_users:
                self.fail(f"evaluated {metrics.users_evaluated} users, "
                          f"expected {self.test_users}")
        elif metrics != self.ref_metrics:
            self.fail(f"evaluate_model changed between repeats: {metrics} vs {self.ref_metrics}")
        return dt

    def next_user(self) -> str:
        return self.user_tokens[int(self.users_rng.integers(len(self.user_tokens)))]

    def expected_items(self, user: str) -> list[str]:
        if user not in self.expected:
            u = self.split.user_map[user]
            top = rank_items(score_all_items(self.e_star, self.split.m, u),
                             self.split.train.user_items(u), spec.TOP)
            self.expected[user] = [self.item_token[int(i)] for i in top]
        return self.expected[user]

    def recommend_args(self, user: str) -> list[str]:
        return ["recommend", "--model", str(self.serve_path), "--data", str(self.data_dir),
                "--user", user, "--top", str(spec.TOP)]

    def recommend_op(self) -> float:
        """In-process CLI recommend; prints the items rank_items gives."""
        self.prepare_serving()
        user = self.next_user()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with self.span("cli.recommend"), contextlib.redirect_stdout(buf):
            cli.main(self.recommend_args(user))
        dt = time.perf_counter() - t0
        if buf.getvalue().split() != self.expected_items(user):
            self.fail(f"recommend for {user} printed {buf.getvalue().split()}, "
                      f"expected {self.expected_items(user)}")
        return dt

    def cold_op(self) -> float:
        """A fresh interpreter runs `dgcf.cli recommend`; same output check."""
        self.prepare_serving()
        return self._cold(self.next_user())

    def _cold(self, user: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "dgcf.cli"] + self.recommend_args(user),
                              env=self.child_env(), cwd=self.root, capture_output=True,
                              text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            self.fail(f"cold recommend exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif proc.stdout.split() != self.expected_items(user):
            self.fail(f"cold recommend for {user} printed {proc.stdout.split()}")
        return dt

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    # -- the run -----------------------------------------------------------
    def worker_part(self, k: int) -> dict:
        """Worker k's share of an end-to-end run, on the files of the last set-up."""
        self.attach(self.setup_dir(self.setup_repeats - 1))
        self.users_rng = np.random.default_rng([self.seed, k])
        minimum = {kind: math.ceil(n / WORKERS) for kind, n in self.minimum.items()}
        for kind in KINDS:  # untimed warm-up: imports, file cache, bytecode, allocator
            self.run_op(kind)
        times = self.interleave(KINDS, self.seconds / WORKERS, minimum)
        return {"times": times, "attempted": self.attempted, "failed": self.failed,
                "train": self.ref_train, "evaluate": dataclasses.asdict(self.ref_metrics),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def end_to_end(self, script: Path) -> dict[str, float]:
        """Set up, then run `script --worker k` WORKERS times, one after the other."""
        setup, _ = self.run_setups()
        times: dict[str, list[float]] = {k: [] for k in KINDS}
        first = None
        rss = []
        for k in range(WORKERS):
            argv = [sys.executable, str(script), "--workload", self.w.name,
                    "--seed", str(self.seed), "--seconds", str(self.seconds),
                    "--worker", str(k)] + (["--smoke"] if self.smoke else [])
            with subprocess.Popen(argv, cwd=self.root, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) as proc:
                try:
                    out, err = proc.communicate(timeout=60 + self.seconds / WORKERS)
                except BaseException:
                    # SIGTERM, not SIGKILL, so the worker reaps its own cold-recommend child
                    proc.terminate()
                    proc.wait()
                    raise
            sys.stderr.write(err)
            if proc.returncode != 0:
                raise RuntimeError(f"worker {k} exited {proc.returncode}")
            part = json.loads(out.splitlines()[-1])
            self.attempted += part["attempted"]
            self.failed += part["failed"]
            for kind in KINDS:
                times[kind] += part["times"][kind]
            rss.append(part["peak_rss_mb"])
            if first is None:
                first = part
            elif (part["train"], part["evaluate"]) != (first["train"], first["evaluate"]):
                self.fail(f"worker {k} trained or evaluated differently from worker 0")
        rec = times["recommend"]
        return {
            "train_triples_per_s": self.w.triples_per_call * len(times["train"])
                                   / math.fsum(times["train"]),
            "evaluate_s": statistics.fmean(times["evaluate"]),
            "recommend_ms_mean": 1000 * statistics.fmean(rec),
            "recommend_ms_p90": 1000 * statistics.quantiles(rec, n=10)[-1],
            "recommend_cold_s": statistics.fmean(times["cold"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(rss),
        }

    def per_layer(self) -> dict[str, float]:
        _, preprocess = self.run_setups()
        # an untraced pass is the reference for the tracing overhead
        kinds = ("train", "evaluate", "recommend")
        untraced = self.interleave(kinds, 0.25 * self.seconds,
                                   dict(train=2, evaluate=2, recommend=10))
        self.tracer = Tracer()
        self.tracer.install()
        try:
            traced = self.interleave(kinds, 0.75 * self.seconds, self.minimum)
        finally:
            self.tracer.uninstall()
        self.tracer.write(self.work / "spans.jsonl")
        stats = summarize(self.tracer.spans)

        alloc = Tracer(track_alloc=True)
        tracemalloc.start()
        alloc.install()
        try:
            self.tracer = alloc
            self.interleave(("train",), 0.0, {"train": 1})
        finally:
            alloc.uninstall()
            tracemalloc.stop()
            self.tracer = None

        solo_ms = 1000 * self.solo_spmm()
        steps_per_call = self.w.triples_per_call // int(self.w.flag("batch-size"))
        return layer_metrics(stats, alloc.alloc_peaks, solo_ms, untraced, traced, steps_per_call,
                             users=self.ref_metrics.users_evaluated,
                             import_s=self.import_seconds(),
                             preprocess_s=statistics.median(preprocess))

    def solo_spmm(self) -> float:
        """Median seconds of one spmm on the workload's S and an (m+n, d) operand."""
        S = laplacian_for(self.split)
        d = int(self.w.flag("dim"))
        X = np.random.default_rng(self.seed).normal(size=(S.shape[0], d))
        times = []
        for _ in range(5 if self.smoke else 60):
            t0 = time.perf_counter()
            spmm(S, X)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def import_seconds(self) -> float:
        """Median time to import dgcf.cli in a fresh interpreter."""
        times = []
        for _ in range(1 if self.smoke else 5):
            self.attempted += 1
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.child_env(),
                                  cwd=self.root, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                self.fail(f"import probe exited {proc.returncode}: {proc.stderr[-300:]}")
                continue
            times.append(float(proc.stdout.split()[-1]))
        return statistics.median(times) if times else 0.0


def layer_metrics(stats: dict, alloc_peaks: dict, solo_ms: float, untraced: dict,
                  traced: dict, steps_per_call: int, users: int, import_s: float,
                  preprocess_s: float) -> dict:
    def per_call(name: str, key: str = "total") -> float:
        rec = stats.get(name)
        return 1000 * rec[key] / rec["calls"] if rec and rec["calls"] else 0.0

    def peak_mb(name: str) -> float:
        peaks = alloc_peaks.get(name)
        return statistics.median(peaks) / 2 ** 20 if peaks else 0.0

    step = stats.get(STEP, {"calls": 0, "total": 0.0})
    spmm_rec = stats.get("graph.spmm", {"step_calls": 0, "step_total": 0.0})
    steps = step["calls"]
    calls_per_step = spmm_rec["step_calls"] / steps if steps else 0.0
    floor_ms = solo_ms * calls_per_step
    step_ms = per_call(STEP)
    fit_total = sum(stats[n]["total"] for n in ("train.fit", "baselines.bprmf_fit") if n in stats)
    return {
        "graph.spmm.ms": per_call("graph.spmm"),
        "graph.spmm.calls_per_step": calls_per_step,
        "graph.spmm.share": spmm_rec["step_total"] / step["total"] if step["total"] else 0.0,
        "graph.spmm.solo_ms": solo_ms,
        "graph.spmm_floor_ms": floor_ms,
        "model.forward.ms": per_call("model.forward"),
        "model.forward.self_ms": per_call("model.forward", "self"),
        "train.backward.ms": per_call("train.backward"),
        "train.backward.self_ms": per_call("train.backward", "self"),
        "train.step.ms": step_ms,
        "train.step.untraced_ms": 1000 * statistics.median(untraced["train"]) / steps_per_call,
        "train.step_over_floor": step_ms / floor_ms if floor_ms else 0.0,
        "train.step.coverage": step["total"] / fit_total if fit_total else 0.0,
        "data.sample_bpr_triples.ms": per_call("data.sample_bpr_triples"),
        "train.bpr_loss.ms": per_call("train.bpr_loss"),
        "train.optimizer_step.ms": per_call("train.optimizer_step"),
        "baselines.bprmf_grads.ms": per_call("baselines.bprmf_grads"),
        "baselines.bprmf_loss.ms": per_call("baselines.bprmf_loss"),
        "train.step.alloc_peak_mb": peak_mb(STEP),
        "model.forward.alloc_peak_mb": peak_mb("model.forward"),
        "modelfile.save_model.ms": per_call("modelfile.save_model"),
        "model.score_all_items.ms": per_call("model.score_all_items"),
        "evaluate.rank_items.ms": per_call("evaluate.rank_items"),
        "evaluate.evaluate_model.self_ms": per_call("evaluate.evaluate_model", "self"),
        "evaluate.users": users,
        "data.load_split.ms": per_call("data.load_split"),
        "modelfile.load_model.ms": per_call("modelfile.load_model"),
        "train.laplacian_for.ms": per_call("train.laplacian_for"),
        "cli.model_embeddings.ms": per_call("cli.model_embeddings"),
        "cli.recommend.self_ms": per_call("cli.recommend", "self"),
        "cli.import_s": import_s,
        "data.preprocess_s": preprocess_s,
        "trace.overhead_ratio": (sum(statistics.median(traced[k]) for k in untraced)
                                 / sum(statistics.median(untraced[k]) for k in untraced)),
    }


def _fit_settings(args: list[str]) -> tuple[Hyperparams, TrainConfig]:
    """Hyperparams and TrainConfig equal to what `dgcf train` builds from args."""
    flags = dict(zip(args[::2], args[1::2]))
    hyper = Hyperparams(d=int(flags["--dim"]), L=int(flags["--layers"]),
                        alpha=float(flags["--alpha"]), beta=float(flags["--beta"]),
                        activation=flags["--activation"],
                        embedding_mode=flags["--embedding-mode"])
    config = TrainConfig(epochs=int(flags["--epochs"]), batch_size=int(flags["--batch-size"]),
                         batches_per_epoch=int(flags["--batches-per-epoch"]),
                         seed=int(flags["--seed"]), eval_every=int(flags["--eval-every"]))
    return hyper, config


def _quiet(fn, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(argv)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library bundled with numpy and scipy."""
    out: dict[str, int] = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = int(fn())
                    break
    return out
