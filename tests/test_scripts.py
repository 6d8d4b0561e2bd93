"""Smoke tests of scripts/: each runs end to end on a small ring corpus and
prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def ring_dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scripts")
    out = run("scripts/make_synthetic.py", "--generator", "ring", "--out", str(tmp / "ring.tsv"))
    lines = (tmp / "ring.tsv").read_text().splitlines()
    assert out == f"wrote {len(lines)} interactions to {tmp / 'ring.tsv'}\n"
    run("-m", "dgcf.cli", "preprocess", "--input", str(tmp / "ring.tsv"), "--out",
        str(tmp / "ds"))
    return tmp / "ds"


def test_run_comparison(ring_dataset):
    out = run("scripts/run_comparison.py", "--data", str(ring_dataset), "--epochs", "1",
              "--dim", "4").splitlines()
    assert out[0].split() == ["model", "recall@20", "ndcg@20", "epochs", "wall_s"]
    assert [line.split()[0] for line in out[1:]] == ["bprmf", "lightgcn", "ours"]


def test_depth_study(ring_dataset):
    out = run("scripts/depth_study.py", "--data", str(ring_dataset), "--depths", "1", "2",
              "--epochs", "1", "--dim", "4").splitlines()
    assert out[0].split() == ["model", "L", "recall@20", "ndcg@20", "user_sim", "wall_s"]
    assert [line.split()[:2] for line in out[1:]] == \
        [["ours", "1"], ["ours", "2"], ["plain", "1"], ["plain", "2"]]
