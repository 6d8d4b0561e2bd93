"""Versioned binary model container shared by train/evaluate/recommend/diagnose.

Layout (all little-endian):
    magic "DGCF" | version u8 | model_type u8 | activation u8 | embedding_mode u8
    m u64 | n u64 | d u64 | L u64 | alpha f64 | beta f64
    layer_weights (L+1) f64 | W (m+n)*d f64 row-major | L blocks of d*d f64
    version 2 only, the graph section:
        graph_sha256 32 bytes | E* (m+n)*d f64 row-major
    crc32 u32 over everything above

Version 2 files carry the graph section: the fingerprint of the training
graph (graph_sha256) and the combined embeddings E* that forward computed on
it at save time. A file saved without a split is written as version 1, byte
for byte as before the section existed; both versions load.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DatasetSplit, laplacian_for
from .errors import ConfigError, ModelFileError
from .model import Hyperparams, ModelParams, forward
from .util import write_atomic_bytes

MAGIC = b"DGCF"
VERSION = 1  # no graph section
GRAPH_VERSION = 2  # with the graph section
MODEL_TAGS = {"ours": 0, "lightgcn": 1, "bprmf": 2, "plain": 3}
TAG_NAMES = {v: k for k, v in MODEL_TAGS.items()}
ACT_TAGS = {"identity": 0, "relu": 1}
ACT_NAMES = {v: k for k, v in ACT_TAGS.items()}
MODE_TAGS = {"sw": 0, "free": 1}
MODE_NAMES = {v: k for k, v in MODE_TAGS.items()}

_HEAD = struct.Struct("<4sBBBB")
_DIMS = struct.Struct("<QQQQdd")
_SHA = 32
_CRC = struct.Struct("<I")


@dataclass
class ModelRecord:
    tag: str
    params: ModelParams
    hyper: Hyperparams
    graph_sha256: str | None = None  # hex; None for a file without the graph section
    e_star: np.ndarray | None = None  # E* on that graph, likewise; read-only


def graph_sha256(split: DatasetSplit) -> str:
    """Fingerprint of the training graph: sha256 of m and n as <u8, then
    indptr and indices of the canonical train matrix as <i8."""
    h = hashlib.sha256(struct.pack("<QQ", split.m, split.n))
    h.update(np.ascontiguousarray(split.train.indptr, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(split.train.indices, dtype="<i8").tobytes())
    return h.hexdigest()


def save_model(path: str | Path, tag: str, params: ModelParams, hyper: Hyperparams,
               split: DatasetSplit | None = None) -> None:
    """Write a model file; given the training split, with its graph section."""
    if tag not in MODEL_TAGS:
        raise ValueError(f"unknown model tag {tag!r}, expected one of {sorted(MODEL_TAGS)}")
    parts = [
        _HEAD.pack(MAGIC, VERSION if split is None else GRAPH_VERSION, MODEL_TAGS[tag],
                   ACT_TAGS[hyper.activation], MODE_TAGS[hyper.embedding_mode]),
        _DIMS.pack(params.m, params.n, hyper.d, hyper.L, hyper.alpha, hyper.beta),
        *map(_f8, [hyper.layer_weights, params.W, *params.W_layers]),
    ]
    if split is not None:
        E_star = forward(params, laplacian_for(split), hyper).E_star
        parts += [bytes.fromhex(graph_sha256(split)), _f8(E_star)]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    write_atomic_bytes(path, *parts, _CRC.pack(crc))


def _f8(x) -> memoryview:
    """x's values as little-endian float64 in C order: a view of x's own
    memory where it is stored so, else of a converted copy."""
    return np.ascontiguousarray(x, dtype="<f8").data


def load_model(path: str | Path) -> ModelRecord:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if len(blob) < _HEAD.size + _DIMS.size + _CRC.size:
        raise ModelFileError(f"{path}: truncated model file")
    body, crc_bytes = memoryview(blob)[:-_CRC.size], blob[-_CRC.size:]
    if zlib.crc32(body) != _CRC.unpack(crc_bytes)[0]:
        raise ModelFileError(f"{path}: checksum mismatch, file is corrupt")
    magic, version, type_b, act_b, mode_b = _HEAD.unpack_from(body, 0)
    if magic != MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    if version not in (VERSION, GRAPH_VERSION):
        raise ModelFileError(f"{path}: unsupported version {version}")
    if type_b not in TAG_NAMES or act_b not in ACT_NAMES or mode_b not in MODE_NAMES:
        raise ModelFileError(f"{path}: unknown type/activation/mode tag")
    m, n, d, L, alpha, beta = _DIMS.unpack_from(body, _HEAD.size)
    off = _HEAD.size + _DIMS.size
    expected = off + 8 * ((L + 1) + (m + n) * d + L * d * d)
    if version == GRAPH_VERSION:
        expected += _SHA + 8 * (m + n) * d
    if len(body) != expected:
        raise ModelFileError(f"{path}: size {len(body)} does not match header (want {expected})")

    def take(count: int, shape, copy: bool = True) -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=off)
        off += 8 * count
        # without a copy, a read-only view of the file's bytes where <f8 is native
        return arr.reshape(shape).astype(np.float64, copy=copy)

    weights = take(L + 1, (L + 1,))
    W = take((m + n) * d, (m + n, d))
    W_layers = [take(d * d, (d, d)) for _ in range(L)]
    sha = e_star = None
    if version == GRAPH_VERSION:
        sha = body[off:off + _SHA].hex()
        off += _SHA
        e_star = take((m + n) * d, (m + n, d), copy=False)
    if not all(np.isfinite(a).all() for a in (W, *W_layers, e_star) if a is not None):
        raise ModelFileError(f"{path}: non-finite parameter or embedding values")
    try:
        hyper = Hyperparams(d=int(d), L=int(L), alpha=alpha, beta=beta, layer_weights=weights,
                            activation=ACT_NAMES[act_b], embedding_mode=MODE_NAMES[mode_b])
    except ConfigError as exc:
        raise ModelFileError(f"{path}: invalid hyperparameters: {exc}") from exc
    params = ModelParams(m=int(m), n=int(n), W=W, W_layers=W_layers)
    return ModelRecord(tag=TAG_NAMES[type_b], params=params, hyper=hyper,
                       graph_sha256=sha, e_star=e_star)
