import dataclasses
import os

import numpy as np
import pytest

from dgcf.errors import ModelFileError
from dgcf.model import PRESETS, Hyperparams, ModelParams, init_params, preset
from dgcf.modelfile import MODEL_TAGS, load_model, save_model
from dgcf.util import write_atomic_bytes


def sample_record(seed=0, m=4, n=6, d=3, L=2, **hyper_kw):
    hyper = Hyperparams(d=d, L=L, **hyper_kw)
    params = init_params(m, n, hyper, np.random.default_rng(seed))
    params.W_layers = [np.random.default_rng(seed + 1 + l).normal(size=(d, d))
                       for l in range(L)]
    return params, hyper


class TestRoundTrip:
    @pytest.mark.parametrize("tag", ["ours", "lightgcn", "bprmf"])
    def test_exact(self, tmp_path, tag):
        params, hyper = sample_record()
        path = tmp_path / "model.bin"
        save_model(path, tag, params, hyper)
        rec = load_model(path)
        assert rec.tag == tag
        assert rec.params.m == params.m and rec.params.n == params.n
        assert np.array_equal(rec.params.W, params.W)
        for a, b in zip(rec.params.W_layers, params.W_layers):
            assert np.array_equal(a, b)
        assert rec.hyper.d == hyper.d and rec.hyper.L == hyper.L
        assert rec.hyper.alpha == hyper.alpha and rec.hyper.beta == hyper.beta
        assert np.array_equal(rec.hyper.layer_weights, hyper.layer_weights)

    def test_nondefault_hyper_survive(self, tmp_path):
        params, hyper = sample_record(alpha=0.25, beta=0.75, activation="identity",
                                      embedding_mode="free",
                                      layer_weights=[0.5, 0.25, 0.25])
        path = tmp_path / "m.bin"
        save_model(path, "ours", params, hyper)
        rec = load_model(path)
        assert rec.hyper.activation == "identity"
        assert rec.hyper.embedding_mode == "free"
        assert list(rec.hyper.layer_weights) == [0.5, 0.25, 0.25]

    @pytest.mark.parametrize("tag", sorted(PRESETS))
    def test_every_field_of_every_preset_survives(self, tmp_path, tag):
        hyper = preset(tag, d=3, L=2, alpha=0.25, beta=0.75, activation="identity",
                       embedding_mode="free", layer_weights=[0.5, 0.25, 0.25])
        params = init_params(4, 6, hyper, np.random.default_rng(0))
        save_model(tmp_path / "m.bin", tag, params, hyper)
        loaded = load_model(tmp_path / "m.bin").hyper
        for f in dataclasses.fields(Hyperparams):
            assert np.array_equal(getattr(loaded, f.name), getattr(hyper, f.name)), f.name

    def test_every_preset_has_a_tag(self):
        assert set(MODEL_TAGS) == set(PRESETS)

    def test_rejects_unknown_tag(self, tmp_path):
        params, hyper = sample_record()
        with pytest.raises(ValueError):
            save_model(tmp_path / "m.bin", "gcnii", params, hyper)

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        params, hyper = sample_record()
        path = tmp_path / "m.bin"
        save_model(path, "ours", params, hyper)
        rec = load_model(path)
        rec.params.W[0, 0] = 123.0  # must not raise (frombuffer views are read-only)


class TestCorruption:
    def test_flipped_byte_fails_checksum(self, tmp_path):
        params, hyper = sample_record()
        path = tmp_path / "m.bin"
        save_model(path, "ours", params, hyper)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match="checksum|corrupt"):
            load_model(path)

    def test_truncated(self, tmp_path):
        params, hyper = sample_record()
        path = tmp_path / "m.bin"
        save_model(path, "ours", params, hyper)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"DG")
        with pytest.raises(ModelFileError, match="truncated"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        params, hyper = sample_record()
        path = tmp_path / "m.bin"
        save_model(path, "ours", params, hyper)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"NOPE"
        # keep the checksum honest so the magic check is what fires
        import zlib
        import struct
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ModelFileError, match="magic"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="cannot read"):
            load_model(tmp_path / "absent.bin")

    def test_trailing_garbage_detected(self, tmp_path):
        params, hyper = sample_record()
        path = tmp_path / "m.bin"
        save_model(path, "ours", params, hyper)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ModelFileError):
            load_model(path)


class TestAtomicity:
    def test_failed_replace_preserves_target(self, tmp_path, monkeypatch):
        path = tmp_path / "f.bin"
        write_atomic_bytes(path, b"original")

        def boom(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_atomic_bytes(path, b"replacement")
        monkeypatch.undo()
        assert path.read_bytes() == b"original"
        leftovers = [p for p in path.parent.iterdir() if p.name != "f.bin"]
        assert leftovers == []

    def test_overwrite_in_place(self, tmp_path):
        path = tmp_path / "f.bin"
        write_atomic_bytes(path, b"one")
        write_atomic_bytes(path, b"two")
        assert path.read_bytes() == b"two"
