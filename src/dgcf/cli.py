"""Command line pipeline: preprocess, train, evaluate, recommend, diagnose.

Options resolve with the precedence: explicit flag > key=value config file
(--config) > built-in default. Every command echoes its fully resolved
configuration next to its outputs, so any reported number can be traced to
the exact settings that produced it. Exit codes: 0 success, 1 usage or data
error or out of memory, 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .data import FORMATS, DatasetSplit, k_core_filter, laplacian_for, load_split, \
    parse_interactions, save_split, split_train_test
from .errors import ConfigError, DataError, DgcfError
from .evaluate import evaluate_model, oversmoothing_report, rank_items, report_tsv
from .model import ACTIVATIONS, EMBEDDING_MODES, PRESETS, forward, preset, score_all_items
from .modelfile import ModelRecord, graph_sha256, load_model, save_model
from .util import read_text, write_atomic_text

PRE, TRAIN, EVAL, REC, DIAG = "preprocess", "train", "evaluate", "recommend", "diagnose"


class Option(NamedTuple):
    """One row of OPTIONS. `name` is the config-file key and the resolved
    attribute; a None default leaves an optional option unset (and unechoed)."""

    name: str
    flag: str
    commands: tuple[str, ...]
    cast: type = str
    default: object = None
    required: bool = False
    help: str | None = None
    choices: tuple[str, ...] | None = None


# In resolution order: a command missing several required options reports the first.
OPTIONS = [
    Option("model_path", "--model", (EVAL, REC), required=True, help="model file"),
    Option("input", "--input", (PRE,), required=True, help="raw interaction file"),
    Option("data", "--data", (TRAIN, EVAL, REC, DIAG), required=True, help="dataset directory"),
    Option("format", "--format", (PRE,), default="edge-pairs", choices=FORMATS),
    Option("k_core", "--k-core", (PRE,), int, 10, help="minimum interactions per node"),
    Option("test_ratio", "--test-ratio", (PRE,), float, 0.2),
    Option("model", "--model", (TRAIN,), default="ours", choices=tuple(PRESETS)),
    Option("out", "--out", (PRE, TRAIN), required=True, help="output dataset dir or model file"),
    Option("log", "--log", (TRAIN,), help="training log path (default: <out>.log.jsonl)"),
    Option("models", "--models", (DIAG,), default="ours,plain", help="comma-separated tags"),
    Option("layers", "--layers", (DIAG,), int, 8, help="deepest layer reported"),
    Option("dim", "--dim", (TRAIN, DIAG), int, 64),
    Option("layers", "--layers", (TRAIN,), int, 4),
    Option("alpha", "--alpha", (TRAIN,), float, 0.1),
    Option("beta", "--beta", (TRAIN,), float, 0.1),
    Option("activation", "--activation", (TRAIN,), default="relu", choices=ACTIVATIONS),
    Option("embedding_mode", "--embedding-mode", (TRAIN,), default="sw", choices=EMBEDDING_MODES),
    Option("layer_weights", "--layer-weights", (TRAIN,), help="comma-separated, length layers+1"),
    Option("lr", "--lr", (TRAIN,), float, 1e-3),
    Option("reg_lambda", "--reg-lambda", (TRAIN,), float, 1e-4),
    Option("epochs", "--epochs", (TRAIN,), int, 200),
    Option("batch_size", "--batch-size", (TRAIN,), int, 1024),
    Option("batches_per_epoch", "--batches-per-epoch", (TRAIN,), int),
    Option("eval_every", "--eval-every", (TRAIN,), int, 10),
    Option("patience", "--patience", (TRAIN,), int, 10),
    Option("k", "--k", (EVAL,), int, 20),
    Option("user", "--user", (REC,), required=True, help="original user token"),
    Option("top", "--top", (REC,), int, 10),
    Option("seed", "--seed", (PRE, TRAIN, DIAG), int, 0),
]


# Options that size the buffers a command allocates, named when it runs out of memory.
SIZED = ("dim", "layers", "batch_size")


class RunConfig(SimpleNamespace):
    """Resolved settings of one command: `command` and one attribute per option."""

    def echo(self) -> str:
        items = [(k, v) for k, v in vars(self).items() if v is not None and k != "command"]
        return "".join(f"{k}={v}\n" for k, v in sorted(items))


class _Parser(argparse.ArgumentParser):
    # usage mistakes are user errors (exit 1), not argparse's default exit 2
    def error(self, message):
        raise ConfigError(message)


@functools.cache  # parse_args leaves the parser as it found it, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dgcf", description="Graph collaborative filtering pipeline")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        s = sub.add_parser(command, help=help_text)
        for opt in OPTIONS:
            if command in opt.commands:
                s.add_argument(opt.flag, dest=opt.name, type=opt.cast, choices=opt.choices,
                               help=opt.help)
        s.add_argument("--config", help="key=value config file; flags override it")
    return p


def read_config_file(path: str) -> dict[str, str]:
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {s!r}")
        key, val = (part.strip() for part in s.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is repeated")
        out[key] = val
    return out


def resolve_config(ns: argparse.Namespace, file_cfg: dict[str, str]) -> RunConfig:
    options = [opt for opt in OPTIONS if ns.command in opt.commands]
    known = {opt.name for opt in options}
    for key in file_cfg:
        if key not in known:
            raise ConfigError(f"config file key {key!r} is not valid for {ns.command}")
    values: dict = {}
    for opt in options:
        val = getattr(ns, opt.name, None)
        if val is None and opt.name in file_cfg:
            try:
                val = opt.cast(file_cfg[opt.name])
            except ValueError as exc:
                raise ConfigError(f"config key {opt.name}={file_cfg[opt.name]!r}: {exc}") from exc
        if val is None:
            val = opt.default
        if val is None and opt.required:
            raise ConfigError(f"{ns.command} requires {opt.flag}")
        if opt.choices and val not in opt.choices:
            raise ConfigError(f"{opt.flag} must be one of {', '.join(opt.choices)}; got {val!r}")
        values[opt.name] = val
    if values.get("seed", 0) < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"--seed must be >= 0, got {values['seed']}")
    return RunConfig(command=ns.command, **values)


def _parse_layer_weights(text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad layer weights {text!r}: {exc}") from exc


def check_memory(need: int) -> None:
    """Raise MemoryError before a run that needs `need` bytes, more than physical
    memory: numpy refuses some such sizes with ValueError, not MemoryError."""
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise MemoryError


def model_embeddings(record: ModelRecord, split: DatasetSplit) -> np.ndarray:
    """Combined embedding table E* of a saved model, whatever its tag: the
    stored one, or for a file without it, forward on the split's graph."""
    if record.e_star is not None:
        return record.e_star
    return forward(record.params, laplacian_for(split), record.hyper).E_star


def cmd_preprocess(cfg: RunConfig) -> None:
    if cfg.k_core < 1:
        raise ConfigError(f"--k-core must be >= 1, got {cfg.k_core}")
    if not 0.0 < cfg.test_ratio < 1.0:
        raise ConfigError(f"--test-ratio must be in (0, 1), got {cfg.test_ratio}")
    raw = parse_interactions(cfg.input, cfg.format)
    filtered = k_core_filter(raw, cfg.k_core)
    if not filtered.pairs:
        raise DataError(f"no interactions survive {cfg.k_core}-core filtering")
    split = split_train_test(filtered, cfg.test_ratio, cfg.seed)
    save_split(split, cfg.out, cfg.k_core)
    write_atomic_text(Path(cfg.out) / "run_config.txt", cfg.echo())
    print(f"m={split.m} n={split.n} nnz={split.train.nnz}")


def cmd_train(cfg: RunConfig) -> None:
    from .train import TrainConfig, fit, training_bytes  # here: serving never imports training

    log_path = cfg.log or cfg.out + ".log.jsonl"
    for path in map(Path, (cfg.out, log_path, cfg.out + ".config")):  # before training
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: {path.parent} is not a directory")
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
    split = load_split(cfg.data)
    # a d < 1 is left to Hyperparams
    check_memory(training_bytes(split.m + split.n, max(cfg.dim, 0),
                                PRESETS[cfg.model].get("L", cfg.layers), cfg.batch_size))
    tcfg = TrainConfig(lr=cfg.lr, reg_lambda=cfg.reg_lambda, epochs=cfg.epochs,
                       batch_size=cfg.batch_size, batches_per_epoch=cfg.batches_per_epoch,
                       seed=cfg.seed, eval_every=cfg.eval_every,
                       early_stop_patience=cfg.patience)
    hyper = preset(cfg.model, d=cfg.dim, L=cfg.layers, alpha=cfg.alpha, beta=cfg.beta,
                   layer_weights=_parse_layer_weights(cfg.layer_weights),
                   activation=cfg.activation, embedding_mode=cfg.embedding_mode)
    params, log = fit(split, hyper, tcfg)
    save_model(cfg.out, cfg.model, params, hyper, split)
    write_atomic_text(log_path, "".join(json.dumps(e, sort_keys=True) + "\n" for e in log))
    # the echo states the saved model, whose preset may have overridden options
    saved = RunConfig(**{**vars(cfg), "dim": hyper.d, "layers": hyper.L, "alpha": hyper.alpha,
                         "beta": hyper.beta, "activation": hyper.activation,
                         "embedding_mode": hyper.embedding_mode,
                         "layer_weights": ",".join(map(str, hyper.layer_weights.tolist()))})
    write_atomic_text(cfg.out + ".config", saved.echo())
    print(f"saved {cfg.model} model to {cfg.out} after {len(log)} epochs")


def load_model_and_split(cfg: RunConfig, read_test: bool = True
                         ) -> tuple[ModelRecord, DatasetSplit]:
    """The --model file and --data split, refused unless their m x n agree and
    the model's training graph, when the file records it, is the split's.
    Without read_test the split's test lists are not read (see load_split)."""
    record = load_model(cfg.model_path)
    split = load_split(cfg.data, read_test)
    if (record.params.m, record.params.n) != (split.m, split.n):
        raise DataError(f"model is {record.params.m}x{record.params.n} but dataset is "
                        f"{split.m}x{split.n}")
    train_path = Path(cfg.data) / "train.txt"
    if record.graph_sha256 is None:
        print(f"note: {cfg.model_path} records no training graph, so it was not checked "
              f"against {train_path}", file=sys.stderr)
    elif record.graph_sha256 != (data_sha := graph_sha256(split)):
        raise DataError(f"{cfg.model_path} was trained on another graph than {train_path} "
                        f"(sha256 {record.graph_sha256[:16]}... against {data_sha[:16]}...)")
    return record, split


def cmd_evaluate(cfg: RunConfig) -> None:
    if cfg.k < 1:  # before the files: a usage error is reported as one, and costs no load
        raise ConfigError(f"--k must be >= 1, got {cfg.k}")
    record, split = load_model_and_split(cfg)
    metrics = evaluate_model(model_embeddings(record, split), split, k=cfg.k)
    print(json.dumps({"model": record.tag, "k": metrics.k, "recall": metrics.recall_at_k,
                      "ndcg": metrics.ndcg_at_k, "users_evaluated": metrics.users_evaluated}))


def cmd_recommend(cfg: RunConfig) -> None:
    if cfg.top < 1:
        raise ConfigError(f"--top must be >= 1, got {cfg.top}")
    record, split = load_model_and_split(cfg, read_test=False)
    u = split.user_map.get(cfg.user)
    if u is None:
        raise DataError(f"unknown user {cfg.user!r}; consulted {Path(cfg.data) / 'user_map.tsv'}")
    e_star = model_embeddings(record, split)
    scores = score_all_items(e_star, split.m, u)
    top = rank_items(scores, split.train.user_items(u), cfg.top)
    if len(top) == 0:
        print(f"warning: user {cfg.user!r} has no rankable items "
              f"(all items are in the training set)", file=sys.stderr)
        return
    by_index = {idx: tok for tok, idx in split.item_map.items()}
    for item in top:
        print(by_index[int(item)])


def cmd_diagnose(cfg: RunConfig) -> None:
    split = load_split(cfg.data)
    tags = [t.strip() for t in cfg.models.split(",") if t.strip()]
    if not tags:
        raise ConfigError("--models must name at least one model tag")
    L = max(PRESETS.get(t, {}).get("L", cfg.layers) for t in tags)
    check_memory((L + 1) * (split.m + split.n) * max(cfg.dim, 0) * 8)  # the forward stack
    grid = [(tag, cfg.layers) for tag in tags]
    reports = oversmoothing_report(split, grid, cfg.seed, d=cfg.dim)
    sys.stdout.write(report_tsv(reports))


COMMANDS = {
    PRE: (cmd_preprocess, "filter, remap, and split an interaction file"),
    TRAIN: (cmd_train, "train a model on a preprocessed directory"),
    EVAL: (cmd_evaluate, "rank held-out items and report Recall/NDCG"),
    REC: (cmd_recommend, "top items for one user"),
    DIAG: (cmd_diagnose, "per-layer embedding smoothness table"),
}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    file_cfg = read_config_file(ns.config) if getattr(ns, "config", None) else {}
    cfg = resolve_config(ns, file_cfg)
    try:
        COMMANDS[cfg.command][0](cfg)
    except MemoryError:
        flags = [opt.flag for opt in OPTIONS if opt.name in SIZED and cfg.command in opt.commands]
        hint = f"; try a smaller {', '.join(flags)}" if flags else ""
        raise ConfigError(f"out of memory in {cfg.command}{hint}") from None
    return 0


def entrypoint(run: Callable[[], int] = main) -> int:
    """run() (the CLI by default) with its exit code: a DgcfError or OSError
    prints one `error:` line and gives 1, any other exception a traceback and 2."""
    try:
        return run()
    except (DgcfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
