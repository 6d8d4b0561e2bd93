"""Seeded synthetic interaction generators.

Six regimes:
  bipartite_ring        -- small connected graphs for propagation diagnostics
  topic_interactions    -- a corpus with flat planted topic blocks, popularity
                           skew, and noise; globally low-rank, so factorization
                           models saturate it easily
  banded_interactions   -- a locality-structured corpus (topics on a ring, each
                           user browsing a contiguous window); high linear rank
                           but still dense enough per node for factorization
  mixed_interactions    -- sparse multi-interest corpus with realistic degree
                           skew; uncorrelated interests make the interaction
                           graph non-assortative, which punishes propagation
  cooccur_interactions  -- users are random walks on a hidden small-world
                           item-item graph; relatedness is instance-level
                           edges rather than low-rank structure
  walk_interactions     -- users are restarting walks over a 2-d torus of
                           topic cells; tastes are irregular local patches
                           that resist low-dimensional factorization

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


def topic_interactions(n_users: int = 900, n_items: int = 1400, n_topics: int = 12,
                       seed: int = 0, mean_activity: float = 45.0, activity_sigma: float = 0.45,
                       primary_weight: float = 0.75, zipf_s: float = 0.9,
                       noise: float = 0.15, min_activity: int = 16) -> RawInteractions:
    """Planted-structure corpus: users mix two topics, items carry one topic.

    Per interaction: with probability `noise` the item is uniform over the
    catalog; otherwise a topic is drawn from the user's (primary, secondary)
    mixture and an item from that topic's Zipf-tilted popularity law. Item
    counts per user follow a lognormal around mean_activity.
    """
    rng = np.random.default_rng(seed)
    uw = len(str(n_users - 1))
    iw = len(str(n_items - 1))
    topic_of = np.arange(n_items) % n_topics
    topic_items = [np.flatnonzero(topic_of == t) for t in range(n_topics)]
    topic_probs = []
    for members in topic_items:
        w = 1.0 / np.arange(1, len(members) + 1) ** zipf_s
        topic_probs.append(w / w.sum())

    mu = np.log(mean_activity) - 0.5 * activity_sigma ** 2
    counts = np.exp(rng.normal(mu, activity_sigma, size=n_users))
    counts = np.clip(np.round(counts).astype(int), min_activity, n_items // 2)

    pairs: list[tuple[str, str]] = []
    for u in range(n_users):
        primary = int(rng.integers(n_topics))
        secondary = int(rng.integers(n_topics))
        chosen: set[int] = set()
        budget = int(counts[u])
        attempts = 0
        while len(chosen) < budget and attempts < budget * 30:
            attempts += 1
            if rng.random() < noise:
                item = int(rng.integers(n_items))
            else:
                t = primary if rng.random() < primary_weight else secondary
                item = int(rng.choice(topic_items[t], p=topic_probs[t]))
            chosen.add(item)
        utok = _tok("u", u, uw)
        pairs.extend((utok, _tok("i", i, iw)) for i in sorted(chosen))
    return RawInteractions(pairs=pairs)


def mixed_interactions(n_users: int = 1000, n_items: int = 1400, n_topics: int = 64,
                       seed: int = 0, topics_per_user: tuple[int, int] = (3, 6),
                       median_activity: float = 13.0, activity_sigma: float = 0.8,
                       zipf_s: float = 0.8, noise: float = 0.15,
                       min_activity: int = 11) -> RawInteractions:
    """Sparse multi-interest corpus with realistic degree skew.

    Each user holds a Dirichlet-weighted handful of topics; items carry one
    topic plus a global Zipf popularity rank. User activity is lognormal
    around a low median, so most users sit near the coverage floor where
    per-user signal is scarce. This is the regime where pooling collaborative
    signal across the interaction graph pays off over independent per-node
    estimation.
    """
    if not 1 <= topics_per_user[0] <= topics_per_user[1] <= n_topics:
        raise ValueError("topics_per_user range must fit inside n_topics")
    rng = np.random.default_rng(seed)
    uw = len(str(n_users - 1))
    iw = len(str(n_items - 1))
    topic_of = np.arange(n_items) % n_topics
    # global popularity: item index doubles as popularity rank within its topic
    pop = 1.0 / (1.0 + np.arange(n_items) / n_topics) ** zipf_s
    items_by_topic = [np.flatnonzero(topic_of == t) for t in range(n_topics)]
    probs_by_topic = []
    for members in items_by_topic:
        w = pop[members]
        probs_by_topic.append(w / w.sum())

    counts = median_activity * np.exp(rng.normal(0.0, activity_sigma, size=n_users))
    counts = np.maximum(np.round(counts).astype(int), min_activity)

    pairs: list[tuple[str, str]] = []
    for u in range(n_users):
        k = int(rng.integers(topics_per_user[0], topics_per_user[1] + 1))
        topics = rng.choice(n_topics, size=k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        budget = min(int(counts[u]), n_items // 2)
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < budget and attempts < budget * 40:
            attempts += 1
            if rng.random() < noise:
                chosen.add(int(rng.integers(n_items)))
            else:
                t = int(topics[rng.choice(k, p=weights)])
                chosen.add(int(rng.choice(items_by_topic[t], p=probs_by_topic[t])))
        utok = _tok("u", u, uw)
        pairs.extend((utok, _tok("i", i, iw)) for i in sorted(chosen))
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


def cooccur_interactions(n_users: int = 1000, n_items: int = 1400, seed: int = 0,
                         local_links: int = 3, long_links: int = 2,
                         restart: float = 0.15, median_activity: float = 20.0,
                         activity_sigma: float = 0.55, zipf_s: float = 0.8,
                         min_activity: int = 14) -> RawInteractions:
    """Corpus driven by a hidden item-item relatedness graph.

    The hidden graph is a small world: each item links to its local_links ring
    neighbors on each side plus long_links uniform long-range links. A user is
    a restarting random walk on that graph from a popularity-drawn seed, so
    their history is a connected patch: held-out items are reachable from the
    observed ones through shared neighbors. Instance-level edges like these
    have no compact low-rank summary, which is what separates models that
    exploit the interaction graph from models that only factorize it.
    """
    if n_items < 2 * local_links + 2:
        raise ValueError("item ring too small for the requested local links")
    rng = np.random.default_rng(seed)
    uw = len(str(n_users - 1))
    iw = len(str(n_items - 1))
    neighbors: list[np.ndarray] = []
    ring = np.arange(1, local_links + 1)
    for i in range(n_items):
        local = np.concatenate([(i + ring) % n_items, (i - ring) % n_items])
        faraway = rng.integers(0, n_items, size=long_links)
        neighbors.append(np.unique(np.concatenate([local, faraway])))

    seed_w = 1.0 / np.arange(1, n_items + 1) ** zipf_s
    seed_p = seed_w / seed_w.sum()
    counts = median_activity * np.exp(rng.normal(0.0, activity_sigma, size=n_users))
    counts = np.maximum(np.round(counts).astype(int), min_activity)

    pairs: list[tuple[str, str]] = []
    for u in range(n_users):
        start = int(rng.choice(n_items, p=seed_p))
        budget = min(int(counts[u]), n_items // 2)
        chosen = {start}
        cur = start
        attempts = 0
        while len(chosen) < budget and attempts < budget * 40:
            attempts += 1
            if rng.random() < restart:
                cur = start
            cur = int(rng.choice(neighbors[cur]))
            chosen.add(cur)
        utok = _tok("u", u, uw)
        pairs.extend((utok, _tok("i", i, iw)) for i in sorted(chosen))
    return RawInteractions(pairs=pairs)


def banded_interactions(n_users: int = 960, n_items: int = 1920, n_topics: int = 96,
                        seed: int = 0, band_width: int = 3, mean_activity: float = 42.0,
                        activity_sigma: float = 0.4, zipf_s: float = 0.7,
                        noise: float = 0.1, min_activity: int = 16) -> RawInteractions:
    """Locality-structured corpus: topics on a ring, users browse a window.

    Items carry one of n_topics topics (assigned cyclically). Each user has a
    home topic and draws items whose topic lies within band_width ring steps
    of home, Zipf-tilted within each topic; a `noise` fraction of each user's
    interactions is uniform over the catalog instead.

    The eligibility pattern is a boxcar circulant band over topics. Its
    spectrum decays slowly, so the structure is not well approximated by a
    small number of latent factors, yet it is perfectly local in the
    interaction graph.
    """
    if not 0 < n_topics <= n_items:
        raise ValueError("need 0 < n_topics <= n_items")
    if not 0 <= 2 * band_width + 1 <= n_topics:
        raise ValueError("band must fit on the topic ring")
    rng = np.random.default_rng(seed)
    uw = len(str(n_users - 1))
    iw = len(str(n_items - 1))
    topic_of = np.arange(n_items) % n_topics
    order = np.lexsort((np.arange(n_items), topic_of))
    items_by_topic = np.split(order, np.searchsorted(topic_of[order], np.arange(1, n_topics)))
    # within-topic popularity: item k of its topic gets weight 1/(k+1)^s
    zipf_w = [1.0 / np.arange(1, len(g) + 1) ** zipf_s for g in items_by_topic]

    mu = np.log(mean_activity) - 0.5 * activity_sigma ** 2
    counts = np.exp(rng.normal(mu, activity_sigma, size=n_users))
    counts = np.round(counts).astype(int)

    offsets = np.arange(-band_width, band_width + 1)
    pairs: list[tuple[str, str]] = []
    for u in range(n_users):
        home = int(rng.integers(n_topics))
        window = (home + offsets) % n_topics
        eligible = np.concatenate([items_by_topic[t] for t in window])
        probs = np.concatenate([zipf_w[t] for t in window])
        probs = probs / probs.sum()
        budget = int(np.clip(counts[u], min_activity, len(eligible)))
        n_noise = int(rng.binomial(budget, noise))
        picked = rng.choice(eligible, size=budget - n_noise, replace=False, p=probs)
        stray = rng.choice(n_items, size=n_noise, replace=False)
        chosen = np.union1d(picked, stray)
        utok = _tok("u", u, uw)
        pairs.extend((utok, _tok("i", int(i), iw)) for i in chosen)
    return RawInteractions(pairs=pairs)
