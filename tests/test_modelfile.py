import dataclasses
import os
import struct
import zlib

import numpy as np
import pytest

from dgcf.data import DatasetSplit, laplacian_for
from dgcf.errors import ModelFileError
from dgcf.graph import InteractionMatrix
from dgcf.model import PRESETS, Hyperparams, ModelParams, forward, init_params, preset
from dgcf.modelfile import MODEL_TAGS, graph_sha256, load_model, save_model
from dgcf.util import write_atomic_bytes
from helpers import write_v1_model


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


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def split_with_rows(split: DatasetSplit, indptr: np.ndarray, indices: np.ndarray
                    ) -> DatasetSplit:
    train = InteractionMatrix(m=split.m, n=split.n, indptr=indptr, indices=indices)
    return DatasetSplit(train=train, test=split.test, user_map=split.user_map,
                        item_map=split.item_map, seed=split.seed)


class TestGraphSection:
    def trained_like(self, split, tag, L=2):
        hyper = preset(tag, d=4, L=L)
        params = init_params(split.m, split.n, hyper, np.random.default_rng(1))
        params.W_layers = [np.random.default_rng(2 + l).normal(0, 0.3, (4, 4))
                           for l in range(hyper.L)]
        return params, hyper

    @pytest.mark.parametrize("tag", sorted(PRESETS))
    def test_stored_e_star_is_forward(self, tmp_path, ring_split, tag):
        params, hyper = self.trained_like(ring_split, tag)
        save_model(tmp_path / "m.bin", tag, params, hyper, ring_split)
        rec = load_model(tmp_path / "m.bin")
        want = forward(params, laplacian_for(ring_split), hyper).E_star
        assert rec.e_star.tobytes() == want.tobytes()
        assert rec.graph_sha256 == graph_sha256(ring_split)
        assert rec.params.W.tobytes() == params.W.tobytes()

    def test_stored_e_star_is_read_only(self, tmp_path, ring_split):
        params, hyper = self.trained_like(ring_split, "ours")
        save_model(tmp_path / "m.bin", "ours", params, hyper, ring_split)
        rec = load_model(tmp_path / "m.bin")
        assert rec.e_star.dtype == np.float64 and not rec.e_star.flags.writeable
        with pytest.raises(ValueError):
            rec.e_star[0, 0] = 1.0
        want = forward(params, laplacian_for(ring_split), hyper).E_star
        assert rec.e_star.tobytes() == want.tobytes()
        rec.params.W[0, 0] = 1.0  # parameters stay writable copies
        rec.params.W_layers[0][0, 0] = 1.0

    def test_four_argument_save_is_version_one(self, tmp_path, ring_split):
        params, hyper = self.trained_like(ring_split, "ours")
        save_model(tmp_path / "v1.bin", "ours", params, hyper)
        rec = load_model(tmp_path / "v1.bin")
        assert rec.graph_sha256 is None and rec.e_star is None
        assert rec.params.W.tobytes() == params.W.tobytes()
        # the graph section is all that a split adds, apart from version byte and CRC
        save_model(tmp_path / "v2.bin", "ours", params, hyper, ring_split)
        write_v1_model(tmp_path / "v2.bin", tmp_path / "stripped.bin")
        assert (tmp_path / "stripped.bin").read_bytes() == (tmp_path / "v1.bin").read_bytes()

    def test_v1_file_loads(self, tmp_path, ring_split):
        params, hyper = self.trained_like(ring_split, "ours")
        save_model(tmp_path / "v2.bin", "ours", params, hyper, ring_split)
        write_v1_model(tmp_path / "v2.bin", tmp_path / "v1.bin")
        rec = load_model(tmp_path / "v1.bin")
        assert rec.e_star is None and rec.graph_sha256 is None
        assert rec.params.W.tobytes() == params.W.tobytes()

    def test_non_finite_e_star_refused(self, tmp_path, ring_split):
        params, hyper = self.trained_like(ring_split, "ours")
        save_model(tmp_path / "m.bin", "ours", params, hyper, ring_split)
        body = bytearray((tmp_path / "m.bin").read_bytes()[:-4])
        body[-8:] = struct.pack("<d", float("nan"))  # the last entry of E*
        (tmp_path / "m.bin").write_bytes(with_crc(bytes(body)))
        with pytest.raises(ModelFileError, match="non-finite"):
            load_model(tmp_path / "m.bin")

    @pytest.mark.parametrize("cut", [8, 32 + 8])
    def test_short_graph_section_refused(self, tmp_path, ring_split, cut):
        params, hyper = self.trained_like(ring_split, "ours")
        save_model(tmp_path / "m.bin", "ours", params, hyper, ring_split)
        body = (tmp_path / "m.bin").read_bytes()[:-4 - cut]
        (tmp_path / "m.bin").write_bytes(with_crc(body))
        with pytest.raises(ModelFileError, match="size"):
            load_model(tmp_path / "m.bin")

    def test_trailing_bytes_refused(self, tmp_path, ring_split):
        params, hyper = self.trained_like(ring_split, "ours")
        save_model(tmp_path / "m.bin", "ours", params, hyper, ring_split)
        body = (tmp_path / "m.bin").read_bytes()[:-4] + b"\0" * 8
        (tmp_path / "m.bin").write_bytes(with_crc(body))
        with pytest.raises(ModelFileError, match="size"):
            load_model(tmp_path / "m.bin")

    def test_fingerprint_ignores_index_dtype(self, ring_split):
        R = ring_split.train
        fingerprints = set()
        for dtype in (np.int32, np.int64, np.uint16):
            cast = split_with_rows(ring_split, R.indptr.astype(dtype), R.indices.astype(dtype))
            fingerprints.add(graph_sha256(cast))
        assert fingerprints == {graph_sha256(ring_split)}

    def test_fingerprint_is_pinned(self, ring_split):
        # the value the package computed when the train matrix was a scipy CSR array:
        # model files saved then still pass the check
        assert graph_sha256(ring_split) == \
            "28f30f7a515a27d659d061950c53e4c7705927adcc71d2ea5ffd74b85a8a9ea0"

    def test_fingerprint_sees_one_edge(self, ring_split):
        R = ring_split.train
        u = 0
        free = next(i for i in range(ring_split.n) if i not in R.user_items(u))
        pairs = np.column_stack((np.repeat(np.arange(R.m), np.diff(R.indptr)), R.indices))
        grown = InteractionMatrix.from_pairs(R.m, R.n, np.vstack((pairs, [[u, free]])))
        edited = split_with_rows(ring_split, grown.indptr, grown.indices)
        assert graph_sha256(edited) != graph_sha256(ring_split)


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

    def test_replace_onto_a_directory_names_the_destination(self, tmp_path):
        # os.replace fails, and the error names the path given, not the temp file
        target = tmp_path / "d"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as err:
            write_atomic_bytes(target, b"one")
        assert str(err.value) == f"[Errno 21] Is a directory: '{target}'"
        assert list(tmp_path.rglob("*")) == [target]

    def test_missing_directory_names_the_destination(self, tmp_path):
        # not the temp file, whose name the caller never gave
        missing = tmp_path / "missing" / "f.bin"
        with pytest.raises(FileNotFoundError) as err:
            write_atomic_bytes(missing, b"one")
        assert str(err.value) == f"[Errno 2] No such file or directory: '{missing}'"
