import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from dgcf import cli
from dgcf.cli import build_parser, entrypoint, main
from dgcf.data import DatasetSplit, load_split, save_split
from dgcf.errors import ConfigError, DataError
from dgcf.evaluate import evaluate_model, oversmoothing_bytes
from dgcf.graph import InteractionMatrix
from dgcf.model import forward
from dgcf.modelfile import load_model
from dgcf.synthetic import bipartite_ring
from dgcf.train import laplacian_for
from helpers import random_interactions, write_v1_model


@pytest.fixture(scope="module")
def raw_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("raw") / "interactions.tsv"
    raw = bipartite_ring(30, 30, 8, seed=4)
    path.write_text("".join(f"{u}\t{i}\n" for u, i in raw.pairs), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def dataset_dir(raw_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "ring"
    code = main(["preprocess", "--input", str(raw_file), "--k-core", "2",
                 "--test-ratio", "0.2", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_model(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "ours.bin"
    code = main(["train", "--data", str(dataset_dir), "--model", "ours",
                 "--dim", "8", "--layers", "2", "--epochs", "3",
                 "--batch-size", "32", "--eval-every", "2", "--out", str(out)])
    assert code == 0
    return out


class TestPreprocess:
    def test_outputs(self, dataset_dir, capsys):
        for name in ("train.txt", "test.txt", "user_map.tsv", "item_map.tsv",
                     "stats.json", "run_config.txt"):
            assert (dataset_dir / name).exists(), name
        stats = json.loads((dataset_dir / "stats.json").read_text())
        assert stats["k"] == 2 and stats["seed"] == 3
        assert stats["m"] == 30 and stats["n"] == 30

    def test_echo_records_resolved_values(self, dataset_dir):
        echo = (dataset_dir / "run_config.txt").read_text()
        assert "k_core=2\n" in echo
        assert "test_ratio=0.2\n" in echo
        assert "format=edge-pairs\n" in echo  # default filled in

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="--input"):
            main(["preprocess", "--out", "/tmp/x"])

    def test_bad_ratio(self, raw_file, tmp_path):
        with pytest.raises(ConfigError, match="test-ratio"):
            main(["preprocess", "--input", str(raw_file), "--test-ratio", "1.5",
                  "--out", str(tmp_path / "o")])

    def test_overfiltering_reported(self, raw_file, tmp_path):
        with pytest.raises(DataError, match="core"):
            main(["preprocess", "--input", str(raw_file), "--k-core", "500",
                  "--out", str(tmp_path / "o")])


class TestTrain:
    def test_artifacts(self, trained_model):
        assert trained_model.exists()
        log_lines = (trained_model.parent / (trained_model.name + ".log.jsonl")) \
            .read_text().strip().split("\n")
        entries = [json.loads(line) for line in log_lines]
        assert len(entries) == 3
        assert all("loss" in e for e in entries)
        assert "recall@20" in entries[1]
        echo = (trained_model.parent / (trained_model.name + ".config")).read_text()
        assert "dim=8\n" in echo and "model=ours\n" in echo

    def test_epochs_zero_saves_initialization(self, dataset_dir, tmp_path):
        out = tmp_path / "init.bin"
        main(["train", "--data", str(dataset_dir), "--epochs", "0", "--dim", "4",
              "--layers", "1", "--out", str(out)])
        from dgcf.modelfile import load_model
        rec = load_model(out)
        fresh = np.random.default_rng(0).normal(0.0, 0.1, rec.params.W.shape)
        assert np.array_equal(rec.params.W, fresh)

    def test_builds_s_once(self, dataset_dir, tmp_path, monkeypatch):
        # fit, its evaluations and save_model's graph section share the split's S
        built = []
        build = InteractionMatrix.laplacian.func

        def counted(R):
            built.append(R)
            return build(R)

        prop = functools.cached_property(counted)
        prop.__set_name__(InteractionMatrix, "laplacian")
        monkeypatch.setattr(InteractionMatrix, "laplacian", prop)
        assert main(["train", "--data", str(dataset_dir), "--epochs", "2", "--dim", "4",
                     "--layers", "1", "--eval-every", "1", "--out", str(tmp_path / "m.bin")]) == 0
        assert len(built) == 1

    def test_bad_layer_weights_length(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError, match="layer_weights"):
            main(["train", "--data", str(dataset_dir), "--layers", "2",
                  "--layer-weights", "0.5,0.5", "--epochs", "1",
                  "--out", str(tmp_path / "m.bin")])

    def test_unknown_model_rejected_by_parser(self):
        with pytest.raises(ConfigError):
            main(["train", "--data", "x", "--model", "svd", "--out", "y"])

    def test_deterministic_artifact(self, dataset_dir, tmp_path):
        args = lambda out: ["train", "--data", str(dataset_dir), "--dim", "4",
                            "--layers", "1", "--epochs", "2", "--batch-size", "32",
                            "--eval-every", "0", "--out", str(out)]
        main(args(tmp_path / "a.bin"))
        main(args(tmp_path / "b.bin"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestTrainEcho:
    @pytest.mark.parametrize("model", ["ours", "plain", "lightgcn", "bprmf"])
    def test_config_states_saved_hyperparams(self, model, dataset_dir, tmp_path):
        # flags that every preset but ours overrides in part
        out = tmp_path / f"{model}.bin"
        main(["train", "--data", str(dataset_dir), "--model", model, "--dim", "4",
              "--layers", "3", "--alpha", "0.3", "--beta", "0.2", "--activation", "relu",
              "--embedding-mode", "sw", "--epochs", "1", "--batch-size", "32",
              "--eval-every", "0", "--out", str(out)])
        echo = dict(line.split("=", 1) for line in
                    (tmp_path / f"{model}.bin.config").read_text().splitlines())
        saved = load_model(out).hyper
        assert echo["model"] == model
        assert (int(echo["dim"]), int(echo["layers"]), float(echo["alpha"]),
                float(echo["beta"]), echo["activation"], echo["embedding_mode"]) == \
            (saved.d, saved.L, saved.alpha, saved.beta, saved.activation, saved.embedding_mode)
        weights = np.array([float(w) for w in echo["layer_weights"].split(",")])
        assert np.array_equal(weights, saved.layer_weights)


class TestParserReuse:
    def test_consecutive_calls_resolve_independently(self, monkeypatch):
        seen = []
        for command, (_, help_text) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, command, (seen.append, help_text))
        main(["train", "--data", "d", "--out", "o", "--layers", "2", "--seed", "5",
              "--model", "plain"])
        main(["diagnose", "--data", "d2"])
        main(["evaluate", "--model", "m", "--data", "d", "--k", "5"])
        main(["evaluate", "--model", "m", "--data", "d"])
        train, diagnose, evaluate_k5, evaluate = (vars(cfg) for cfg in seen)
        assert (train["layers"], train["seed"], train["model"]) == (2, 5, "plain")
        assert (diagnose["layers"], diagnose["seed"], diagnose["data"]) == (8, 0, "d2")
        assert "model" not in diagnose
        assert evaluate_k5["k"] == 5 and evaluate["k"] == 20
        assert evaluate["model_path"] == "m" and "model" not in evaluate
        assert build_parser() is build_parser()


class TestEvaluate:
    def test_json_output(self, trained_model, dataset_dir, capsys):
        main(["evaluate", "--model", str(trained_model), "--data", str(dataset_dir),
              "--k", "5"])
        out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert out["model"] == "ours" and out["k"] == 5
        assert 0.0 <= out["recall"] <= 1.0 and 0.0 <= out["ndcg"] <= 1.0
        assert out["users_evaluated"] == 30

    def test_wrong_dataset_rejected(self, trained_model, tmp_path):
        raw = tmp_path / "small.tsv"
        small = bipartite_ring(10, 10, 4, seed=0)
        raw.write_text("".join(f"{u}\t{i}\n" for u, i in small.pairs))
        other = tmp_path / "other"
        main(["preprocess", "--input", str(raw), "--k-core", "2", "--out", str(other)])
        with pytest.raises(DataError, match="dataset"):
            main(["evaluate", "--model", str(trained_model), "--data", str(other)])

    @pytest.mark.parametrize("model", ["bprmf", "lightgcn", "ours", "plain"])
    def test_matches_forward_of_saved_model(self, model, dataset_dir, tmp_path, capsys):
        out = tmp_path / f"{model}.bin"
        main(["train", "--data", str(dataset_dir), "--model", model, "--dim", "8",
              "--layers", "2", "--epochs", "3", "--batch-size", "32", "--eval-every", "0",
              "--out", str(out)])
        capsys.readouterr()
        main(["evaluate", "--model", str(out), "--data", str(dataset_dir)])
        got = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        record, split = load_model(out), load_split(dataset_dir)
        want = evaluate_model(forward(record.params, laplacian_for(split), record.hyper).E_star,
                              split, k=20)
        assert record.tag == got["model"] == model
        assert (got["recall"], got["ndcg"]) == (want.recall_at_k, want.ndcg_at_k)

    def test_bad_k(self, trained_model, dataset_dir):
        with pytest.raises(ConfigError, match="--k"):
            main(["evaluate", "--model", str(trained_model), "--data",
                  str(dataset_dir), "--k", "0"])

    @pytest.mark.parametrize("command, flag", [("evaluate", "--k"), ("recommend", "--top")])
    def test_bad_count_reported_before_reading_files(self, command, flag, trained_model,
                                                     dataset_dir, tmp_path, monkeypatch, capsys):
        corrupt = tmp_path / "corrupt.dgcf"
        corrupt.write_bytes(trained_model.read_bytes()[:-7])
        for model in (corrupt, tmp_path / "missing.dgcf"):
            argv = [*serving_argv(command, model, dataset_dir), flag, "0"]
            code, _, err = run_cli(argv, monkeypatch, capsys)
            assert code == 1 and f"{flag} must be >= 1, got 0" in err
            assert str(model) not in err


class TestRecommend:
    def test_prints_item_tokens(self, trained_model, dataset_dir, capsys):
        main(["recommend", "--model", str(trained_model), "--data", str(dataset_dir),
              "--user", "u00", "--top", "5"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert 1 <= len(lines) <= 5
        assert all(line.startswith("i") for line in lines)
        # never recommend an already-interacted item
        import dgcf.data as data
        split = data.load_split(dataset_dir)
        seen = {tok for tok, idx in split.item_map.items()
                if idx in set(split.train.user_items(split.user_map["u00"]))}
        assert not seen.intersection(lines)

    def test_unknown_user(self, trained_model, dataset_dir):
        with pytest.raises(DataError, match="user_map.tsv"):
            main(["recommend", "--model", str(trained_model), "--data",
                  str(dataset_dir), "--user", "nobody"])


def run_cli(argv, monkeypatch, capsys) -> tuple[int, str, str]:
    """entrypoint() on argv: (exit code, stdout, stderr)."""
    capsys.readouterr()
    monkeypatch.setattr("sys.argv", ["dgcf", *argv])
    code = entrypoint()
    out, err = capsys.readouterr()
    return code, out, err


def serving_argv(command, model, data):
    extra = ["--user", "u00"] if command == "recommend" else []
    return [command, "--model", str(model), "--data", str(data), *extra]


@pytest.fixture(scope="module")
def seed_splits(raw_file, tmp_path_factory):
    """Seed-0 and seed-5 splits of one corpus, and a model trained on the seed-0 split."""
    root = tmp_path_factory.mktemp("seeds")
    for seed in (0, 5):
        assert main(["preprocess", "--input", str(raw_file), "--k-core", "2",
                     "--seed", str(seed), "--out", str(root / f"seed{seed}")]) == 0
    assert main(["train", "--data", str(root / "seed0"), "--dim", "4", "--layers", "2",
                 "--epochs", "1", "--batch-size", "32", "--eval-every", "0",
                 "--out", str(root / "seed0.bin")]) == 0
    return root


@pytest.mark.parametrize("command", ["evaluate", "recommend"])
class TestTrainingGraph:
    def test_model_of_another_split_refused(self, command, seed_splits, monkeypatch, capsys):
        model, data = seed_splits / "seed0.bin", seed_splits / "seed5"
        assert load_split(data).m == load_split(seed_splits / "seed0").m  # same m x n
        code, out, err = run_cli(serving_argv(command, model, data), monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert str(model) in err and str(data / "train.txt") in err

    def test_edited_train_file_refused(self, command, trained_model, dataset_dir, tmp_path,
                                       monkeypatch, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lines = (data / "train.txt").read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if len(line.split()) > 2)
        lines[k] = lines[k].rsplit(" ", 1)[0]  # one interaction fewer, still well-formed
        (data / "train.txt").write_text("\n".join(lines) + "\n")
        load_split(data)
        code, out, err = run_cli(serving_argv(command, trained_model, data), monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert str(trained_model) in err and str(data / "train.txt") in err

    def test_v1_file_gives_same_output_and_one_note(self, command, trained_model, dataset_dir,
                                                    tmp_path, monkeypatch, capsys):
        v1 = tmp_path / "v1.bin"
        write_v1_model(trained_model, v1)
        code, want, err = run_cli(serving_argv(command, trained_model, dataset_dir),
                                  monkeypatch, capsys)
        assert (code, err) == (0, "")
        code, got, err = run_cli(serving_argv(command, v1, dataset_dir), monkeypatch, capsys)
        assert (code, got) == (0, want)
        assert len(err.splitlines()) == 1
        assert "not checked" in err and str(v1) in err and str(dataset_dir / "train.txt") in err

    def test_stored_e_star_is_served_without_forward(self, command, trained_model, dataset_dir,
                                                     monkeypatch, capsys):
        argv = serving_argv(command, trained_model, dataset_dir)
        code, want, _ = run_cli(argv, monkeypatch, capsys)
        assert code == 0

        def recompute(*args, **kwargs):
            raise AssertionError("the stored E* was recomputed")

        monkeypatch.setattr(cli, "forward", recompute)
        monkeypatch.setattr(cli, "laplacian_for", recompute)
        assert run_cli(argv, monkeypatch, capsys) == (0, want, "")


def test_import_leaves_training_unloaded(trained_model, dataset_dir, tmp_path):
    """Importing the CLI loads neither training nor scipy, and serving a
    version-2 file loads neither either. Serving a version-1 file and
    diagnose propagate, which loads scipy's compiled kernels alone, none of
    scipy's Python modules; version 1 still serves the same output."""
    v1 = tmp_path / "v1.bin"
    write_v1_model(trained_model, v1)
    loaded = ("print(sorted(name for name in sys.modules "
              "if name == 'dgcf.train' or name.split('.')[0] == 'scipy'))")
    serve = {version: [serving_argv(command, model, dataset_dir)
                       for command in ("evaluate", "recommend")]
             for version, model in ((2, trained_model), (1, v1))}
    diagnose = ["diagnose", "--data", str(dataset_dir), "--models", "ours,plain",
                "--layers", "2", "--dim", "4"]
    probes = [
        f"import sys, dgcf.cli; {loaded}",
        f"import sys; from dgcf.cli import main; [main(a) for a in {serve[2]!r}]; {loaded}; "
        f"[main(a) for a in {serve[1]!r}]; {loaded}",
        f"import sys; from dgcf.cli import main; main({diagnose!r}); {loaded}",
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    outputs = []
    for probe in probes:
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    kernels = str(["scipy.sparse._sparsetools"])
    assert outputs[0] == ["[]"]
    lines = outputs[1]
    ends = [k for k, line in enumerate(lines) if line.startswith("[")]  # the module lists
    assert [lines[k] for k in ends] == ["[]", kernels]
    v2, v1 = lines[:ends[0]], lines[ends[0] + 1:ends[1]]
    assert json.loads(v2[0])["users_evaluated"] > 0 and len(v2) > 1
    assert v1 == v2  # version 1 serves the same metrics and items
    assert outputs[2][0] == "model\tlayer\tuser_sim\titem_sim"
    assert outputs[2][-1] == kernels


class TestDiagnose:
    def test_tsv_shape(self, dataset_dir, capsys):
        main(["diagnose", "--data", str(dataset_dir), "--models", "plain",
              "--layers", "3", "--dim", "8"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "model\tlayer\tuser_sim\titem_sim"
        assert [line.split("\t")[1] for line in lines[1:]] == ["0", "1", "2", "3"]

    def test_two_models(self, dataset_dir, capsys):
        main(["diagnose", "--data", str(dataset_dir), "--models", "ours,plain",
              "--layers", "2", "--dim", "8"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 3 + 3
        assert lines[1].split("\t")[0] == "ours"
        assert lines[4].split("\t")[0] == "plain"

    def test_memory_check_bounds_a_run(self, tmp_path, capsys):
        """The tracemalloc peak of a warm diagnose run at its default models
        (ours, then plain) stays under evaluate.oversmoothing_bytes, the
        bytes its memory check asks for, and that bound counts what is there."""
        m, n = 600, 900
        pairs = random_interactions(np.random.default_rng(9), m, n, 6)
        split = DatasetSplit(InteractionMatrix.from_pairs(m, n, pairs), [[]] * m,
                             {f"u{u}": u for u in range(m)}, {f"i{i}": i for i in range(n)}, 0)
        save_split(split, tmp_path, k_core=1)
        argv = ["diagnose", "--data", str(tmp_path), "--layers", "3"]
        main(argv)  # the first call's imports and caches
        capsys.readouterr()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            main(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 4
        bound = oversmoothing_bytes(split, 64, 3)
        assert peak < bound, (peak, bound)
        assert peak > 0.75 * bound, (peak, bound)

    def test_bad_range(self, dataset_dir, monkeypatch, capsys):
        # a depth, not a range: LOW..HIGH is a usage error
        code, out, err = run_cli(["diagnose", "--data", str(dataset_dir), "--layers", "1..8"],
                                 monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --layers: invalid int value: '1..8'")


class TestLayerRange:
    @pytest.mark.parametrize("text,want", [("8", 8), ("3", 3)])
    def test_parses(self, text, want):
        ns = build_parser().parse_args(["diagnose", "--data", "d", "--layers", text])
        assert cli.resolve_config(ns, {}).layers == want

    @pytest.mark.parametrize("text", ["", "x", "2..", "..3", "-1..2", "5..2", "1..8", "0..2"])
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            main(["diagnose", "--data", "d", "--layers", text])


class TestConfigFile:
    def test_flag_overrides_file(self, dataset_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=5\ndim=4\nlayers=1\n# comment\n\nbatch_size=32\n")
        out = tmp_path / "m.bin"
        main(["train", "--data", str(dataset_dir), "--config", str(cfg),
              "--epochs", "1", "--eval-every", "0", "--out", str(out)])
        echo = (tmp_path / "m.bin.config").read_text()
        assert "epochs=1\n" in echo  # flag wins
        assert "dim=4\n" in echo  # file fills the gap

    def test_unknown_key_rejected(self, dataset_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum=0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                  "--out", str(tmp_path / "m.bin")])

    def test_malformed_line(self, dataset_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs\n")
        with pytest.raises(ConfigError, match="key=value"):
            main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                  "--out", str(tmp_path / "m.bin")])

    def test_repeated_key_rejected(self, dataset_dir, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("epochs=5\n# later edit\n epochs = 7\n")
        code, _, err = run_cli(["train", "--data", str(dataset_dir), "--config", str(cfg),
                                "--out", str(tmp_path / "m.bin")], monkeypatch, capsys)
        assert code == 1
        assert f"{cfg}:3: key 'epochs' is repeated" in err
        assert not (tmp_path / "m.bin").exists()

    def test_missing_config_file(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            main(["train", "--data", str(dataset_dir), "--config",
                  str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "m.bin")])


class TestDualRoute:
    def test_reduced_ours_matches_lightgcn_end_to_end(self, dataset_dir, tmp_path, capsys):
        """Training 'ours' in its reduction configuration and training the
        lightgcn preset must give identical metrics."""
        common = ["--data", str(dataset_dir), "--dim", "8", "--layers", "2",
                  "--epochs", "3", "--batch-size", "32", "--eval-every", "0"]
        main(["train", "--model", "lightgcn", *common, "--out", str(tmp_path / "lg.bin")])
        main(["train", "--model", "ours", "--alpha", "0", "--beta", "0",
              "--activation", "identity", "--embedding-mode", "free", *common,
              "--out", str(tmp_path / "red.bin")])
        results = []
        for name in ("lg.bin", "red.bin"):
            main(["evaluate", "--model", str(tmp_path / name), "--data", str(dataset_dir)])
            results.append(json.loads(capsys.readouterr().out.strip().split("\n")[-1]))
        assert results[0]["recall"] == pytest.approx(results[1]["recall"], abs=1e-12)
        assert results[0]["ndcg"] == pytest.approx(results[1]["ndcg"], abs=1e-12)


class TestExitCodes:
    def test_success_is_zero(self, raw_file, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.argv", ["dgcf", "preprocess", "--input", str(raw_file),
                                         "--k-core", "2", "--out", str(tmp_path / "d")])
        assert entrypoint() == 0

    def test_usage_error_is_one(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["dgcf", "preprocess"])
        assert entrypoint() == 1
        assert "error" in capsys.readouterr().err

    def test_data_error_is_one(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "nope.tsv"
        monkeypatch.setattr("sys.argv", ["dgcf", "preprocess", "--input", str(missing),
                                         "--out", str(tmp_path / "d")])
        assert entrypoint() == 1

    def test_unknown_command_is_one(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["dgcf", "frobnicate"])
        assert entrypoint() == 1

    @pytest.mark.parametrize("flag,value,message", [
        ("--epochs", "-1", "epochs must be >= 0, got -1"),
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--batches-per-epoch", "0", "batches_per_epoch must be >= 1, got 0"),
        ("--eval-every", "-1", "eval_every must be >= 0, got -1"),
        ("--patience", "0", "early_stop_patience must be >= 1, got 0"),
        ("--lr", "-1", "lr must be finite and >= 0, got -1.0"),
    ])
    def test_bad_training_value_names_only_its_key(self, flag, value, message, dataset_dir,
                                                   tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(["train", "--data", str(dataset_dir), flag, value,
                                  "--out", str(tmp_path / "m")], monkeypatch, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["preprocess", "train", "diagnose"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_is_one(self, command, where, raw_file, dataset_dir, tmp_path,
                                  monkeypatch, capsys):
        argv = {"preprocess": ["preprocess", "--input", str(raw_file)],
                "train": ["train", "--data", str(dataset_dir)],
                "diagnose": ["diagnose", "--data", str(dataset_dir)]}[command]
        if command != "diagnose":
            argv += ["--out", str(tmp_path / "out")]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("seed=-1\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        code, out, err = run_cli(argv, monkeypatch, capsys)
        assert (code, out, err) == (1, "", "error: --seed must be >= 0, got -1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,directory", [("--out", False), ("--log", False),
                                                ("--out", True), ("--log", True)],
                             ids=["--out", "--log", "--out-directory", "--log-directory"])
    def test_train_into_missing_directory_is_one_before_training(self, flag, directory,
                                                                 dataset_dir, tmp_path,
                                                                 monkeypatch, capsys):
        # a path that is a directory is refused up front too, not once
        # training is over, when os.replace fails onto it
        def never(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr("dgcf.train.fit", never)
        target = tmp_path / "d" if directory else tmp_path / "missing" / "m.dgcf"
        if directory:
            target.mkdir()
        argv = ["train", "--data", str(dataset_dir), "--epochs", "1",
                "--out", str(tmp_path / "m.dgcf"), flag, str(target)]  # the last --out wins
        code, out, err = run_cli(argv, monkeypatch, capsys)
        assert (code, out) == (1, "")
        reason = "it is a directory" if directory else f"{target.parent} is not a directory"
        assert err == f"error: cannot write {target}: {reason}\n"
        assert list(tmp_path.rglob("*")) == ([target] if directory else [])

    def test_train_without_sparse_kernel_is_one(self, dataset_dir, tmp_path, monkeypatch,
                                                capsys, without_sparse_kernel):
        argv = ["train", "--data", str(dataset_dir), "--epochs", "1", "--dim", "4",
                "--layers", "1", "--out", str(tmp_path / "m.dgcf")]
        code, out, err = run_cli(argv, monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: scipy {scipy.__version__} has no scipy.sparse._sparsetools."
                       "csr_matvecs, the kernel of every sparse product\n")
        assert not list(tmp_path.iterdir())

    def test_bprmf_train_without_sparse_kernel_is_one(self, dataset_dir, tmp_path, monkeypatch,
                                                      capsys, without_sparse_kernel):
        # bprmf's forward makes no sparse product, so building C is its first kernel
        argv = ["train", "--data", str(dataset_dir), "--model", "bprmf", "--epochs", "1",
                "--dim", "4", "--out", str(tmp_path / "m.dgcf")]
        code, out, err = run_cli(argv, monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: scipy {scipy.__version__} has no scipy.sparse._sparsetools."
                       "coo_tocsr, the kernel that builds the loss gradient's seed C\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,flags", [
        ("train", "--dim, --layers, --batch-size"),
        ("diagnose", "--layers, --dim"),
        ("recommend", None),
    ])
    def test_out_of_memory_is_one(self, command, flags, dataset_dir, trained_model, tmp_path,
                                  monkeypatch, capsys):
        def exhausted(cfg):
            raise MemoryError  # what numpy raises for a buffer it cannot allocate

        monkeypatch.setitem(cli.COMMANDS, command, (exhausted, ""))
        argv = {"train": ["train", "--data", str(dataset_dir), "--out", str(tmp_path / "m")],
                "diagnose": ["diagnose", "--data", str(dataset_dir)],
                "recommend": serving_argv("recommend", trained_model, dataset_dir)}[command]
        code, out, err = run_cli(argv, monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: out of memory in {command}")
        assert (f"try a smaller {flags}\n" in err) if flags else ("try" not in err)

    # 2**62-scale sizes only: numpy refuses them before allocating, so a
    # missed check shows as exit 2, never as a large allocation
    @pytest.mark.parametrize("command,flag", [
        ("train", "--dim"), ("train", "--layers"), ("train", "--batch-size"),
        ("diagnose", "--dim"), ("diagnose", "--layers"),
    ])
    def test_oversized_buffers_are_refused_up_front(self, command, flag, dataset_dir, tmp_path,
                                                    monkeypatch, capsys):
        argv = [command, "--data", str(dataset_dir), flag, str(2 ** 62)]
        if command == "train":
            argv += ["--out", str(tmp_path / "m")]
        code, out, err = run_cli(argv, monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: out of memory in {command}; try a smaller ")
        assert not list(tmp_path.iterdir())

    def test_buffer_check_uses_the_depth_a_preset_pins(self, dataset_dir, tmp_path, monkeypatch,
                                                       capsys):
        # bprmf is L=0 whatever --layers says, so a 2**62 depth allocates nothing
        deep = ["--model", "bprmf", "--layers", str(2 ** 62)]
        assert run_cli(["train", "--data", str(dataset_dir), *deep, "--epochs", "0",
                        "--out", str(tmp_path / "m")], monkeypatch, capsys)[0] == 0
        code, out, _ = run_cli(["diagnose", "--data", str(dataset_dir), "--models", "bprmf",
                                "--layers", str(2 ** 62)], monkeypatch, capsys)
        assert code == 0 and len(out.splitlines()) == 2  # the header and layer 0

    def test_malformed_test_file_fails_only_evaluate(self, trained_model, dataset_dir,
                                                     tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        (data / "test.txt").write_text("0 x\n")
        code, want, _ = run_cli(serving_argv("recommend", trained_model, dataset_dir),
                                monkeypatch, capsys)
        assert code == 0 and want
        assert run_cli(serving_argv("recommend", trained_model, data),
                       monkeypatch, capsys) == (0, want, "")
        code, out, err = run_cli(serving_argv("evaluate", trained_model, data),
                                 monkeypatch, capsys)
        assert (code, out) == (1, "") and f"{data / 'test.txt'}:1" in err

    @pytest.mark.parametrize("name,text", [
        ("train.txt", "0 1\n0 999\n"),
        ("train.txt", "0 x\n"),
        ("stats.json", "{not json"),
        ("stats.json", '{"m": 30}'),
        ("stats.json", '{"m": 1e400, "n": 30, "seed": 3}'),
        ("user_map.tsv", "u00\tzero\n"),
        ("item_map.tsv", "i00\t0\n"),
    ], ids=["index-out-of-range", "non-integer-index", "bad-json", "missing-keys",
            "infinite-size", "non-integer-map-index", "map-misses-indices"])
    def test_corrupt_dataset_is_one(self, name, text, dataset_dir, tmp_path, monkeypatch,
                                    capsys):
        bad = tmp_path / "bad"
        shutil.copytree(dataset_dir, bad)
        (bad / name).write_text(text, encoding="utf-8")
        monkeypatch.setattr("sys.argv", ["dgcf", "train", "--data", str(bad), "--epochs", "1",
                                         "--out", str(tmp_path / "m.bin")])
        assert entrypoint() == 1
        assert str(bad / name) in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["parse_interactions", "_read_map", "_read_adjacency",
                                        "read_config_file"])
    def test_non_utf8_file_is_one(self, reader, raw_file, dataset_dir, tmp_path, monkeypatch,
                                  capsys):
        data, raw, cfg = tmp_path / "data", tmp_path / "raw.tsv", tmp_path / "train.cfg"
        shutil.copytree(dataset_dir, data)
        shutil.copyfile(raw_file, raw)
        cfg.write_text("epochs=1\n")
        train = ["train", "--data", str(data), "--epochs", "1"]
        bad, argv = {
            "parse_interactions": (raw, ["preprocess", "--input", str(raw), "--k-core", "2"]),
            "_read_map": (data / "user_map.tsv", train),
            "_read_adjacency": (data / "train.txt", train),
            "read_config_file": (cfg, [*train, "--config", str(cfg)]),
        }[reader]
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\xff\n", 1))
        monkeypatch.setattr("sys.argv", ["dgcf", *argv, "--out", str(tmp_path / "out")])
        assert entrypoint() == 1
        assert f"{bad}: not UTF-8" in capsys.readouterr().err


EDITABLE = ["train.txt", "test.txt", "user_map.tsv", "item_map.tsv", "stats.json", "model.bin",
            "model-v1.bin"]
EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                 st.integers(min_value=0), st.integers(0, 255))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(target=st.sampled_from(EDITABLE), edits=st.lists(EDIT, min_size=1, max_size=3))
def test_corrupted_file_never_exits_two(trained_model, dataset_dir, target, edits):
    """1-3 random byte edits to one dataset file or the model file, a version-2
    file as train writes it or its version-1 form: evaluate and recommend end in
    success or a reported error (exit 0 or 1), never exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "data", Path(tmp) / "model.bin"
        shutil.copytree(dataset_dir, data)
        if target == "model-v1.bin":
            write_v1_model(trained_model, model)
        else:
            shutil.copyfile(trained_model, model)
        path = model if target.startswith("model") else data / target
        blob = bytearray(path.read_bytes())
        for kind, pos, byte in edits:
            pos %= len(blob) + (kind == "insert")
            if kind == "insert":
                blob.insert(pos, byte)
            elif kind == "delete" and len(blob) > 1:
                del blob[pos]
            else:
                blob[pos] = byte
        path.write_bytes(bytes(blob))
        common = ["--model", str(model), "--data", str(data)]
        for argv in (["evaluate", *common], ["recommend", *common, "--user", "u00"]):
            with mock.patch("sys.argv", ["dgcf", *argv]):
                assert entrypoint() in (0, 1), (target, edits, argv)
