"""Seeded synthetic interaction generators.

Two regimes:
  bipartite_ring     -- small connected graphs for propagation diagnostics
  walk_interactions  -- users are restarting walks over a 2-d torus of topic
                        cells; tastes are irregular local patches that resist
                        low-dimensional factorization

Tokens are zero-padded ("u0007", "i0123") so lexicographic order equals
numeric order after remapping.
"""

from __future__ import annotations

import bisect

import numpy as np

from .data import RawInteractions


def _tok(prefix: str, idx: int, width: int) -> str:
    return f"{prefix}{idx:0{width}d}"


def bipartite_ring(m: int, n: int, extra_per_user: int, seed: int) -> RawInteractions:
    """Connected bipartite graph: a user-item ring plus random extra edges.

    The ring (u_k, i_k), (u_k, i_{k+1 mod n}) touches every node, so the
    graph is connected by construction whenever m == n; extra edges are
    uniform random.
    """
    if m != n:
        raise ValueError("ring construction requires m == n")
    rng = np.random.default_rng(seed)
    uw = len(str(m - 1))
    iw = len(str(n - 1))
    pairs = []
    seen = set()
    for u in range(m):
        for i in (u, (u + 1) % n):
            pairs.append((_tok("u", u, uw), _tok("i", i, iw)))
            seen.add((u, i))
    for u in range(m):
        items = rng.integers(0, n, size=extra_per_user)
        for i in items:
            key = (u, int(i))
            if key not in seen:
                seen.add(key)
                pairs.append((_tok("u", u, uw), _tok("i", int(i), iw)))
    return RawInteractions(pairs=pairs)


def walk_interactions(n_users: int = 1150, grid_side: int = 24, items_per_cell: int = 3,
                      seed: int = 0, restart: float = 0.25, median_activity: float = 24.0,
                      activity_sigma: float = 0.5, zipf_s: float = 0.4,
                      noise: float = 0.03, min_activity: int = 15) -> RawInteractions:
    """Corpus over a 2-d torus of topic cells, users as restarting walks.

    Items live in grid_side x grid_side cells (items_per_cell each). A user
    starts at a home cell and random-walks over the 4-neighbor torus,
    restarting home with probability `restart`, drawing one Zipf-tilted item
    from each visited cell. Tastes are therefore irregular local patches in a
    2-d geometry: high-resolution position information that propagation over
    the interaction graph preserves but a low-dimensional factorization has
    to blur.
    """
    rng = np.random.default_rng(seed)
    n_cells = grid_side * grid_side
    n_items = n_cells * items_per_cell
    uw = len(str(n_users - 1))
    iw = len(str(n_items - 1))
    # cell c holds items c*items_per_cell .. (c+1)*items_per_cell - 1
    cell_w = 1.0 / np.arange(1, items_per_cell + 1) ** zipf_s
    cell_p = cell_w / cell_w.sum()
    # rng.choice(items_per_cell, p=cell_p) draws one rng.random() and looks it
    # up in this table with searchsorted(side="right"); bisect_right is the
    # same lookup without the per-call overhead of choice
    cdf = cell_p.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    counts = median_activity * np.exp(rng.normal(0.0, activity_sigma, size=n_users))
    counts = np.maximum(np.round(counts).astype(int), min_activity)

    pairs: list[tuple[str, str]] = []
    for u in range(n_users):
        home = int(rng.integers(n_cells))
        budget = min(int(counts[u]), n_items // 2)
        chosen: set[int] = set()
        cur = home
        attempts = 0
        while len(chosen) < budget and attempts < budget * 40:
            attempts += 1
            if rng.random() < noise:
                chosen.add(int(rng.integers(n_items)))
                continue
            if rng.random() < restart:
                cur = home
            row, col = divmod(cur, grid_side)
            step = rng.integers(4)
            if step == 0:
                row = (row + 1) % grid_side
            elif step == 1:
                row = (row - 1) % grid_side
            elif step == 2:
                col = (col + 1) % grid_side
            else:
                col = (col - 1) % grid_side
            cur = row * grid_side + col
            item = cur * items_per_cell + bisect.bisect_right(cdf, rng.random())
            chosen.add(item)
        utok = _tok("u", u, uw)
        pairs.extend((utok, _tok("i", i, iw)) for i in sorted(chosen))
    return RawInteractions(pairs=pairs)
