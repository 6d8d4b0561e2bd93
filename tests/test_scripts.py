"""scripts/ end to end on the ring corpus: each prints the rows of
dgcf.experiments.train_and_score on the same split, its runs in table order."""

import pytest

from dgcf.data import load_split
from dgcf.experiments import CHECK_6, CHECK_7, train_and_score

from conftest import run_script, script_dataset


@pytest.fixture(scope="module")
def ring_dataset(tmp_path_factory):
    return script_dataset(tmp_path_factory.mktemp("scripts"), "ring")


def assert_prints_runs(script, runs, dataset):
    out = run_script(script, "--data", str(dataset)).splitlines()
    assert out[0].split() == ["run", "recall@20", "ndcg@20", "epochs", "wall_s"]
    split = load_split(dataset)
    want = [[name, f"{r.recall:.4f}", f"{r.ndcg:.4f}", str(r.epochs)]
            for name in runs for r in [train_and_score(split, name)]]
    assert [line.split()[:4] for line in out[1:]] == want


def test_run_comparison(ring_dataset):
    assert_prints_runs("scripts/run_comparison.py", CHECK_6, ring_dataset)


def test_depth_study(ring_dataset):
    assert_prints_runs("scripts/depth_study.py", CHECK_7, ring_dataset)
