"""Interaction ingestion, k-core filtering, train/test splitting, BPR sampling.

All randomness flows through numpy's PCG64 generator (np.random.default_rng),
so splits and samples reproduce exactly for a given seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, ParseError
from .graph import InteractionMatrix
from .util import read_text, write_atomic_text

if TYPE_CHECKING:
    import scipy.sparse as sp

FORMATS = ("edge-pairs", "adjacency-list")


@dataclass
class RawInteractions:
    """Deduplicated (user_token, item_token) pairs in first-seen order."""

    pairs: list[tuple[str, str]]


@dataclass(eq=False)
class DatasetSplit:
    """Per-user train/test partition over contiguously re-indexed tokens.
    State derived from train, such as the sampler's pair codes (train.codes),
    is kept on the immutable matrix, not here."""

    train: InteractionMatrix
    test: list[list[int]] | None  # per user, ascending held-out items; None if not read
    user_map: dict[str, int]
    item_map: dict[str, int]
    seed: int

    @property
    def m(self) -> int:
        return self.train.m

    @property
    def n(self) -> int:
        return self.train.n


def parse_interactions(path: str | Path, fmt: str) -> RawInteractions:
    """Read an interaction file.

    edge-pairs: one "user<TAB>item" per line.
    adjacency-list: one "user item1 item2 ..." whitespace-separated line per user.
    Blank lines are ignored; duplicate pairs are dropped.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    text = read_text(path)
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if fmt == "edge-pairs":
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise ParseError(f"{path}:{lineno}: expected 'user<TAB>item', got {line!r}")
            new = [(parts[0].strip(), parts[1].strip())]
        else:
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(f"{path}:{lineno}: expected 'user item1 item2 ...', got {line!r}")
            new = [(parts[0], item) for item in parts[1:]]
        for p in new:
            if p not in seen:
                seen.add(p)
                pairs.append(p)
    if not pairs:
        raise DataError(f"{path}: no interactions found")
    return RawInteractions(pairs=pairs)


def k_core_filter(raw: RawInteractions, k: int) -> RawInteractions:
    """Maximal subgraph where every surviving user and item has >= k interactions.

    Each round deletes all currently under-degree nodes at once and repeats to
    a fixed point; the result is the unique maximal k-core (possibly empty).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pairs = raw.pairs
    while True:
        udeg: dict[str, int] = {}
        ideg: dict[str, int] = {}
        for u, i in pairs:
            udeg[u] = udeg.get(u, 0) + 1
            ideg[i] = ideg.get(i, 0) + 1
        bad_u = {u for u, c in udeg.items() if c < k}
        bad_i = {i for i, c in ideg.items() if c < k}
        if not bad_u and not bad_i:
            return RawInteractions(pairs=list(pairs))
        pairs = [(u, i) for u, i in pairs if u not in bad_u and i not in bad_i]
        if not pairs:
            return RawInteractions(pairs=[])


def split_train_test(raw: RawInteractions, test_ratio: float, seed: int) -> DatasetSplit:
    """Hold out a per-user uniform random ceil(test_ratio * degree) subset.

    At least one interaction always stays in train, so single-interaction users
    contribute nothing to test. Tokens are remapped to contiguous indices in
    lexicographic token order, which makes the split a pure function of
    (pairs, ratio, seed).
    """
    if not 0.0 < test_ratio < 1.0:
        raise ValueError(f"test_ratio must be in (0, 1), got {test_ratio}")
    if not raw.pairs:
        raise DataError("cannot split an empty interaction set")
    user_map = {tok: idx for idx, tok in enumerate(sorted({u for u, _ in raw.pairs}))}
    item_map = {tok: idx for idx, tok in enumerate(sorted({i for _, i in raw.pairs}))}
    m, n = len(user_map), len(item_map)
    per_user: list[list[int]] = [[] for _ in range(m)]
    for u, i in raw.pairs:
        per_user[user_map[u]].append(item_map[i])
    rng = np.random.default_rng(seed)
    train_pairs: list[tuple[int, int]] = []
    test: list[list[int]] = []
    for u in range(m):
        items = np.sort(np.asarray(per_user[u], dtype=np.int64))
        cnt = len(items)
        t = min(math.ceil(test_ratio * cnt), cnt - 1)
        if t > 0:
            held = rng.choice(cnt, size=t, replace=False)
            mask = np.zeros(cnt, dtype=bool)
            mask[held] = True
            test.append(sorted(int(i) for i in items[mask]))
            kept = items[~mask]
        else:
            test.append([])
            kept = items
        train_pairs.extend((u, int(i)) for i in kept)
    train = InteractionMatrix.from_pairs(m, n, train_pairs)
    return DatasetSplit(train=train, test=test, user_map=user_map, item_map=item_map, seed=seed)


def laplacian_for(split: DatasetSplit) -> sp.csr_array:
    """Normalized adjacency S of the split's train graph, the propagation operator:
    the (m+n) x (m+n) block matrix [[0, R], [R^T, 0]] with S_ij = 1 / sqrt(d_i d_j)
    on each edge, for node degrees d; isolated nodes (d = 0) keep all-zero rows.
    An item's row lists its users ascending, and each value is one product of
    the two scale factors, so S equals its transpose exactly."""
    import scipy.sparse as sp

    R = split.train
    m, n = R.m, R.n
    user_deg = np.diff(R.indptr)
    item_deg = np.bincount(R.indices, minlength=n)
    deg = np.concatenate((user_deg, item_deg))
    inv_sqrt = np.zeros(m + n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    users = np.repeat(np.arange(m), user_deg)  # the user of each stored pair
    items = m + R.indices
    edge = inv_sqrt[users] * inv_sqrt[items]
    by_item = np.argsort(R.indices * m + users)  # by item, then user: the keys are unique
    data = np.concatenate((edge, edge[by_item]))
    indices = np.concatenate((items, users[by_item]))
    indptr = np.concatenate((R.indptr, R.nnz + np.cumsum(item_deg)))
    return sp.csr_array((data, indices, indptr), shape=(m + n, m + n))


def sample_bpr_triples(split: DatasetSplit, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample (u, i_pos, j_neg) triples, shape (batch_size, 3).

    u is uniform over users with at least one train interaction and at least
    one non-interacted item; i_pos uniform over u's train items; j_neg uniform
    over items outside u's train set, by rejection.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    r = split.train
    deg = np.diff(r.indptr)
    eligible = np.flatnonzero((deg >= 1) & (deg < split.n))
    if len(eligible) == 0:
        raise DataError("no sampleable users: every user has no or all items in train")
    flat = r.codes
    users = eligible[rng.integers(0, len(eligible), size=batch_size)]
    offsets = rng.integers(0, deg[users])
    pos = r.indices[r.indptr[users] + offsets]
    neg = rng.integers(0, split.n, size=batch_size)
    # each round checks only the negatives drawn in the last one: a negative
    # that passed stays, so the draws are those of re-checking the whole batch.
    # Codes are looked up in ascending order, which walks flat's cache lines
    # in order, and their positions scattered back: the same loc either way
    todo = np.arange(batch_size)
    while True:
        codes = users[todo] * split.n + neg[todo]
        order = np.argsort(codes)
        loc = np.empty_like(order)
        loc[order] = np.searchsorted(flat, codes[order])
        loc[loc >= len(flat)] = len(flat) - 1
        todo = todo[flat[loc] == codes]
        if len(todo) == 0:
            break
        neg[todo] = rng.integers(0, split.n, size=len(todo))
    return np.stack([users, pos, neg], axis=1).astype(np.int64)


def save_split(split: DatasetSplit, out_dir: str | Path, k_core: int) -> None:
    """Write train.txt/test.txt (adjacency-list of internal indices), token maps,
    and stats.json into out_dir. Every file is written atomically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for u in range(split.m):
        items = split.train.user_items(u)
        if len(items):
            lines.append(" ".join([str(u)] + [str(int(i)) for i in items]))
    write_atomic_text(out / "train.txt", "\n".join(lines) + "\n")
    lines = []
    for u, items in enumerate(split.test):
        if items:
            lines.append(" ".join([str(u)] + [str(i) for i in items]))
    write_atomic_text(out / "test.txt", "\n".join(lines) + "\n" if lines else "")
    for name, mapping in (("user_map.tsv", split.user_map), ("item_map.tsv", split.item_map)):
        rows = sorted(mapping.items(), key=lambda kv: kv[1])
        write_atomic_text(out / name, "".join(f"{tok}\t{idx}\n" for tok, idx in rows))
    stats = {"m": split.m, "n": split.n, "nnz": split.train.nnz, "seed": split.seed, "k": k_core}
    write_atomic_text(out / "stats.json", json.dumps(stats, sort_keys=True) + "\n")


def load_split(data_dir: str | Path, read_test: bool = True) -> DatasetSplit:
    """Reconstruct a DatasetSplit from a directory written by save_split;
    without read_test, test.txt is not read and the split's test is None.
    A missing or blank test.txt means no held-out items."""
    d = Path(data_dir)
    if not d.is_dir():
        raise DataError(f"dataset directory not found: {d}")
    stats_path = d / "stats.json"
    try:
        stats = json.loads(read_text(stats_path))
    except ValueError as exc:
        raise ParseError(f"{stats_path}: not JSON ({exc})") from None
    if not isinstance(stats, dict):
        raise ParseError(f"{stats_path}: expected a JSON object with integer m, n, seed")
    for key in ("m", "n", "seed"):
        if type(stats.get(key)) is not int:  # so true, 1.5 and "1" are refused, not cast
            got = json.dumps(stats[key]) if key in stats else "nothing"
            raise ParseError(f"{stats_path}: {key!r} must be a JSON integer, got {got}")
    m, n, seed = stats["m"], stats["n"], stats["seed"]
    user_map = _read_map(d / "user_map.tsv", m)
    item_map = _read_map(d / "item_map.tsv", n)
    train_path = d / "train.txt"
    pairs = _read_adjacency(train_path, m, n)
    if not len(pairs):
        raise DataError(f"{train_path}: no interactions found")
    train = InteractionMatrix.from_pairs(m, n, pairs)
    test: list[list[int]] | None = [[] for _ in range(m)] if read_test else None
    test_path = d / "test.txt"
    if read_test and test_path.exists():
        # the rows of a canonical matrix are each user's items, ascending and without repeats
        held = InteractionMatrix.from_pairs(m, n, _read_adjacency(test_path, m, n))
        items, bounds = held.indices.tolist(), held.indptr.tolist()
        test = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return DatasetSplit(train=train, test=test, user_map=user_map, item_map=item_map, seed=seed)


def _read_map(path: Path, size: int) -> dict[str, int]:
    """'token<TAB>index' lines whose indices are exactly 0..size-1 (size from stats.json).
    Text whose every line holds one tab and an int() index, with no token
    repeated, is read in one pass; any other goes to _read_map_lines."""
    text = read_text(path)
    mapping = _parse_map(text)
    if mapping is None:
        mapping = _read_map_lines(path, text)
    # timsort passes the ascending indices of a canonical file in linear time
    if len(mapping) != size or sorted(mapping.values()) != list(range(size)):
        raise DataError(f"{path}: indices are not 0..{size - 1} as stats.json says")
    return mapping


def _parse_map(text: str) -> dict[str, int] | None:
    """The token map of text whose lines (str.splitlines) each hold exactly one
    tab, an index that int() reads and a token no other line holds, as
    _read_map_lines reads it; None for any other text."""
    lines = text.splitlines()
    if text.count("\t") != len(lines) or not all("\t" in line for line in lines):
        return None  # a line without a tab, so a blank line or one with two tabs
    fields = "\t".join(lines).split("\t")
    try:
        indices = list(map(int, fields[1::2]))
    except ValueError:
        return None
    mapping = dict(zip(fields[::2], indices))
    return mapping if len(mapping) == len(indices) else None


def _read_map_lines(path: Path, text: str) -> dict[str, int]:
    """The reference map reader: one line at a time, skipping blank lines, with
    the file and line of the first malformed or repeated entry."""
    mapping: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            token, index = line.split("\t")
            index = int(index)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: expected 'token<TAB>index', got {line!r}") from None
        if token in mapping:
            raise ParseError(f"{path}:{lineno}: token {token!r} is listed twice")
        mapping[token] = index
    return mapping


# The bytes of the adjacency lists save_split writes. Any other byte (another
# line break, a sign, an underscore, a non-ASCII digit, a letter) sends the
# file to the line-by-line reader, which defines what int() accepts.
_ADJACENCY_BYTES = b"0123456789 \t\n"


def _read_adjacency(path: Path, m: int, n: int) -> np.ndarray:
    """'user item1 item2 ...' lines of indices into the m x n interaction matrix,
    as a (k, 2) int64 array of (user, item) rows, one per listed item, in file
    order; (0, 2) when every line is blank.

    A file of ASCII digits, blanks and '\\n' is parsed in one vectorised pass
    over its bytes. Whatever that pass cannot vouch for goes to
    _read_adjacency_lines, which it reproduces exactly and which alone words
    a ParseError."""
    pairs = _parse_adjacency(Path(path).read_bytes(), m, n)
    return _read_adjacency_lines(path, m, n) if pairs is None else pairs


def _parse_adjacency(raw: bytes, m: int, n: int) -> np.ndarray | None:
    """The pairs of an adjacency-list file's bytes, or None when the file holds
    another byte than _ADJACENCY_BYTES, a token of more than 18 digits (which
    may not fit int64), a line with a user but no item, or an index out of range."""
    if raw.translate(None, _ADJACENCY_BYTES):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    digit = np.zeros(len(b) + 2, dtype=bool)  # a blank on each side
    np.greater(b, ord(" "), out=digit[1:-1])  # the digits are the only bytes above the blank
    edges = np.flatnonzero(digit[1:] != digit[:-1])  # token t is b[edges[2t]:edges[2t + 1]]
    if not len(edges):
        return np.empty((0, 2), dtype=np.int64)
    if (edges[1::2] - edges[::2]).max() > 18:
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")  # any run of blanks separates
    if 2 * len(values) != len(edges):
        return None
    # line l holds tokens bounds[l]:bounds[l + 1]; no token spans a line break
    breaks = np.searchsorted(edges, np.flatnonzero(b == ord("\n")), side="right") // 2
    bounds = np.concatenate(([0], breaks, [len(values)]))
    sizes = np.diff(bounds)
    listed = sizes > 0  # blank lines hold no token
    heads, counts = bounds[:-1][listed], sizes[listed] - 1
    users = values[heads]
    items = np.delete(values, heads)
    if counts.min() < 1 or int(users.max()) >= m or int(items.max()) >= n:
        return None
    return np.column_stack((np.repeat(users, counts), items))


def _read_adjacency_lines(path: Path, m: int, n: int) -> np.ndarray:
    """The reference reader of _read_adjacency: one line at a time, str.split
    and int() per token, with the file and line of the first malformed line."""
    users: list[int] = []
    counts: list[int] = []
    items: list[int] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            u, *row = map(int, tokens)
        except ValueError:
            u, row = -1, []
        if not row or not 0 <= u < m or min(row) < 0 or max(row) >= n:
            raise ParseError(f"{path}:{lineno}: expected 'user item1 item2 ...' with user "
                             f"index < {m} and item indices < {n}, got {line!r}")
        users.append(u)
        counts.append(len(row))
        items.extend(row)
    return np.column_stack((np.repeat(np.array(users, dtype=np.int64), counts),
                            np.array(items, dtype=np.int64)))
