"""Spans recorded around calls into dgcf, from outside the package.

A Tracer replaces public functions at the names their callers look them up
by (for example `dgcf.train.forward`, which `fit` calls) with wrappers that
record one span per call: name, start, end, parent span and operation id.
Spans stay in memory until `write`. A training step has no function of its
own, so its span opens when `sample_bpr_triples` is called and closes when
`optimizer_step` returns, which brackets every step of `fit` and `bprmf_fit`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

STEP = "train.step"

# (module, attribute, span name). A missing attribute is skipped, so the
# benchmark keeps running when a later version of the package drops one.
TARGETS = [
    ("dgcf.model", "spmm", "graph.spmm"),
    ("dgcf.train", "spmm", "graph.spmm"),
    ("dgcf.baselines", "spmm", "graph.spmm"),
    ("dgcf.train", "sample_bpr_triples", "data.sample_bpr_triples"),
    ("dgcf.baselines", "sample_bpr_triples", "data.sample_bpr_triples"),
    ("dgcf.train", "forward", "model.forward"),
    ("dgcf.cli", "forward", "model.forward"),
    ("dgcf.train", "bpr_loss", "train.bpr_loss"),
    ("dgcf.train", "backward", "train.backward"),
    ("dgcf.train", "optimizer_step", "train.optimizer_step"),
    ("dgcf.baselines", "optimizer_step", "train.optimizer_step"),
    ("dgcf.train", "laplacian_for", "train.laplacian_for"),
    ("dgcf.cli", "laplacian_for", "train.laplacian_for"),
    ("dgcf.train", "fit", "train.fit"),
    ("dgcf.cli", "fit", "train.fit"),
    ("dgcf.baselines", "bprmf_grads", "baselines.bprmf_grads"),
    ("dgcf.baselines", "bprmf_loss", "baselines.bprmf_loss"),
    ("dgcf.cli", "bprmf_fit", "baselines.bprmf_fit"),
    ("dgcf.evaluate", "score_all_items", "model.score_all_items"),
    ("dgcf.cli", "score_all_items", "model.score_all_items"),
    ("dgcf.evaluate", "rank_items", "evaluate.rank_items"),
    ("dgcf.cli", "rank_items", "evaluate.rank_items"),
    ("dgcf.evaluate", "evaluate_model", "evaluate.evaluate_model"),
    ("dgcf.cli", "evaluate_model", "evaluate.evaluate_model"),
    ("dgcf.data", "load_split", "data.load_split"),
    ("dgcf.cli", "load_split", "data.load_split"),
    ("dgcf.modelfile", "load_model", "modelfile.load_model"),
    ("dgcf.cli", "load_model", "modelfile.load_model"),
    ("dgcf.modelfile", "save_model", "modelfile.save_model"),
    ("dgcf.cli", "save_model", "modelfile.save_model"),
    ("dgcf.cli", "model_embeddings", "cli.model_embeddings"),
]

# Spans whose tracemalloc peak is recorded when allocation tracking is on.
ALLOC_SPANS = (STEP, "model.forward")


class Tracer:
    """In-memory span recorder; `install` wraps TARGETS, `uninstall` restores them."""

    def __init__(self, track_alloc: bool = False):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.alloc_peaks: dict[str, list[int]] = defaultdict(list)
        self.track_alloc = track_alloc
        self.op = 0
        self._stack: list[int] = []
        self._open_alloc: list[list] = []  # [span index, base bytes, peak bytes]
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        if self.track_alloc and name in ALLOC_SPANS:
            self._fold_peak()
            tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
            self._open_alloc.append([idx, current, current])
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        """Close span idx and any span left open inside it by an exception."""
        end = time.perf_counter()
        while self._stack and self._stack[-1] != idx:
            self._finish(self._stack.pop(), end)
        if self._stack:
            self._finish(self._stack.pop(), end)

    def _finish(self, idx: int, end: float) -> None:
        self.spans[idx][2] = end
        if self._open_alloc and self._open_alloc[-1][0] == idx:
            self._fold_peak()
            _, base, peak = self._open_alloc.pop()
            self.alloc_peaks[self.spans[idx][0]].append(peak - base)

    def _fold_peak(self) -> None:
        # tracemalloc keeps one peak; carry it into every open span before a reset
        peak = tracemalloc.get_traced_memory()[1]
        for rec in self._open_alloc:
            rec[2] = max(rec[2], peak)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def step_open(self) -> bool:
        return any(self.spans[i][0] == STEP for i in self._stack)

    # -- installing wrappers -----------------------------------------------
    def install(self) -> None:
        for mod_name, attr, span_name in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr, None)
            if original is None:
                continue
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span_name, attr))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, attr: str):
        opens_step = attr == "sample_bpr_triples"
        closes_step = attr == "optimizer_step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opens_step and not self.step_open():
                self.open(STEP)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if closes_step and self._stack and self.spans[self._stack[-1]][0] == STEP:
                    self.close(self._stack[-1])

        return wrapper

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, and the same inside steps."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    in_step = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        # parents precede children, so the flag is already set on the parent
        in_step[i] = parent >= 0 and (spans[parent][0] == STEP or in_step[parent])
    out: dict = defaultdict(lambda: dict(calls=0, total=0.0, self=0.0,
                                         step_calls=0, step_total=0.0))
    for i, (name, start, end, _, _) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["total"] += end - start
        rec["self"] += end - start - child_time[i]
        if in_step[i]:
            rec["step_calls"] += 1
            rec["step_total"] += end - start
    return out
