"""Tests of the benchmark itself: the manifest, the smoke mode and the checks.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spec  # noqa: E402
from spans import STEP, summarize  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_manifest_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


def test_manifest_keeps_the_contract_limits():
    m = spec.manifest()
    assert 2 <= len(m["workloads"]) <= 8 and 1 <= m["run_seconds"] <= 60
    names = [w["name"] for w in m["workloads"]] + [e["name"] for e in m["end_to_end"]] \
        + [p["name"] for p in m["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    for entry in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    assert all(0 < e["bound"] <= 0.25 for e in m["end_to_end"])
    setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in m["end_to_end"])}]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [row[0] for row in table]
    for name, unit, *_ in table:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1])
    assert any(line.startswith("  fail_ratio = 0 ratio") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("--workload", "wide_serve", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def smoke_run(tmp_path):
    import bench
    run = bench.BenchRun(spec.WORKLOADS["wide_serve"], seed=1, seconds=0.0, smoke=True,
                         root=ROOT, work=tmp_path)
    run.run_setups()
    run.prepare_serving()
    return run


def test_check_fires_when_training_does_not_repeat(smoke_run, monkeypatch):
    from dgcf import baselines
    original = baselines.bprmf_loss
    calls = []

    def drifting_loss(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs) + 1e-9 * len(calls)

    smoke_run.train_op()
    monkeypatch.setattr(baselines, "bprmf_loss", drifting_loss)
    smoke_run.train_op()
    assert smoke_run.failed == 1


def test_check_fires_when_evaluate_changes(smoke_run, monkeypatch):
    from dgcf import evaluate
    original = evaluate.evaluate_model
    smoke_run.evaluate_op()
    monkeypatch.setattr(evaluate, "evaluate_model",
                        lambda *a, **k: original(*a, **dict(k, k=spec.EVAL_K - 1)))
    smoke_run.evaluate_op()
    assert smoke_run.failed == 1


def test_check_fires_when_recommend_misranks(smoke_run, monkeypatch):
    from dgcf import cli
    original = cli.rank_items
    monkeypatch.setattr(cli, "rank_items", lambda *a, **k: original(*a, **k)[::-1])
    for _ in range(3):
        smoke_run.recommend_op()
    assert smoke_run.failed == 3


def test_summarize_splits_self_time_and_step_membership():
    # [name, start, end, parent, op]
    spans = [
        ["train.fit", 0.0, 10.0, -1, 1],
        [STEP, 0.0, 6.0, 0, 1],
        ["model.forward", 1.0, 4.0, 1, 1],
        ["graph.spmm", 1.0, 2.0, 2, 1],
        ["graph.spmm", 2.0, 3.0, 2, 1],
        ["graph.spmm", 7.0, 8.0, 0, 1],
    ]
    stats = summarize(spans)
    assert stats["model.forward"]["self"] == pytest.approx(1.0)
    assert stats["train.fit"]["self"] == pytest.approx(3.0)
    assert stats["graph.spmm"]["calls"] == 3
    assert stats["graph.spmm"]["step_calls"] == 2
    assert stats["graph.spmm"]["step_total"] == pytest.approx(2.0)
