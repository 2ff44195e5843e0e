"""Brownian excursions and the metric trees spanned inside them.

Paths are nonnegative piecewise-linear functions on a uniform grid of
[0, 1], zero exactly at the endpoints. The distance between two times is
d(s, t) = f(s) + f(t) - 2 min(f on [s, t]); quotienting by d = 0 turns the
path into a random real tree. The tree spanned by the root and k uniform
grid times, with every grid time's mass lumped onto its nearest vertex, is
the pencil the excursion route counts on. Splitting the path at the
infimum between two uniform times decomposes the tree into three rescaled
independent copies whose masses form a Dirichlet(1/2,1/2,1/2) triple; that
split lives with the tests, in ``tests/excursion_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from ._kernels import nearest_vertex


class ExcursionPath:
    """A discretized excursion: heights at grid times k/N, positive inside."""

    def __init__(self, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] < 3:
            raise ValueError("an excursion needs at least 3 grid values")
        if values[0] != 0.0 or values[-1] != 0.0:
            raise ValueError("excursion endpoints must be exactly zero")
        if not (values[1:-1] > 0.0).all():
            raise ValueError("excursion must be strictly positive inside (0, 1)")
        self.values = values
        self.n_steps = values.shape[0] - 1


def sample_excursion(n_steps: int, seed) -> ExcursionPath:
    """Normalised excursion at grid resolution n_steps, exact in law.

    Construction: Gaussian random walk, bridge correction, cyclic shift at
    the argmin (Vervaat transform, first minimum on ties), endpoint
    clamping. The zero-probability event of an interior tie at the minimum
    triggers a redraw from the same stream.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    rng = np.random.default_rng(seed)
    frac = np.arange(n_steps + 1) / n_steps
    for _ in range(64):
        walk = np.empty(n_steps + 1)
        walk[0] = 0.0
        np.cumsum(rng.standard_normal(n_steps) / np.sqrt(n_steps), out=walk[1:])
        bridge = walk - frac * walk[-1]
        m = int(np.argmin(bridge[:-1]))
        exc = bridge[(m + np.arange(n_steps + 1)) % n_steps] - bridge[m]
        exc[0] = 0.0
        exc[-1] = 0.0
        if (exc[1:-1] > 0.0).all():
            return ExcursionPath(exc)
    raise RuntimeError("could not draw a strictly positive excursion")  # pragma: no cover


# ---------------------------------------------------------------------------
# Reduced trees spanned by the root and k uniform points
# ---------------------------------------------------------------------------


class MetricTree:
    """Finite metric tree rooted at vertex 0, with parent links, edge lengths and vertex masses.

    ``lump_extent`` records, per vertex, the largest path distance from the
    vertex to a grid time whose mass was lumped onto it (zero when no
    off-tree mass hangs there); it feeds spectral-resolution estimates.
    """

    def __init__(self, parent, edge_len, mass, time_idx, lump_extent):
        self.parent = np.asarray(parent, dtype=np.int64)
        self.edge_len = np.asarray(edge_len, dtype=np.float64)
        self.mass = np.asarray(mass, dtype=np.float64)
        self.time_idx = np.asarray(time_idx, dtype=np.int64)
        self.lump_extent = np.asarray(lump_extent, dtype=np.float64)
        if (self.edge_len[1:] <= 0).any():
            raise ValueError("edge lengths must be positive")
        if abs(self.mass.sum() - 1.0) > 1e-9:
            raise ValueError("vertex masses must sum to 1")

    @property
    def n_vertices(self) -> int:
        return self.parent.shape[0]


def reduced_tree(f: ExcursionPath, k: int, seed) -> MetricTree:
    """Metric tree spanned by the root and k uniform grid times."""
    if k < 1:
        raise ValueError("need at least one leaf")
    n = f.n_steps
    if k > n - 1:
        raise ValueError("more leaves than interior grid times")
    rng = np.random.default_rng(seed)
    leaf_idx = rng.choice(n - 1, size=k, replace=False) + 1
    return spanned_tree(f, leaf_idx)


def _insertion_neighbours(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per leaf j, the time-order positions of its neighbours among leaves 0..j-1.

    ``order`` lists the leaves in time order, ties by index. Returns
    (before, after), -1 and k where there is none: the nearest positions on
    either side of j's that hold a smaller leaf index. Both come from
    descending a sparse table of range minima over ``order``, widest window
    first, in about 3 log2(k) vectorised passes.
    """
    k = order.shape[0]
    rows, w = [order], 1  # row r: min of order[i .. i + 2^r - 1]
    while 2 * w <= k:
        rows.append(np.minimum(rows[-1][:-w], rows[-1][w:]))
        w *= 2
    lo, hi = np.arange(k), np.arange(1, k + 1)  # the run lo..hi - 1 around p holds no index below order[p]
    for r in range(len(rows) - 1, -1, -1):
        w, row = 1 << r, rows[r]
        ok = (lo >= w) & (row[np.maximum(lo - w, 0)] > order)
        lo = np.where(ok, lo - w, lo)
        ok = (hi <= k - w) & (row[np.minimum(hi, k - w)] > order)
        hi = np.where(ok, hi + w, hi)
    before, after = np.empty_like(lo), np.empty_like(hi)
    before[order], after[order] = lo - 1, hi
    return before, after


def _segment_minima(values: np.ndarray, st: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, first argmin) of ``values`` over [st[p], st[p + 1]] for sorted times ``st``.

    A zero-length segment (a repeated time) has that time as its argmin.
    """
    lens = np.diff(st)
    m = np.minimum.reduceat(values[: st[-1] + 1], st[:-1])  # right ends excluded, but the last's
    np.minimum(m, values[st[1:]], out=m)
    # the first grid time of each segment attaining its minimum, right end excluded
    hit = np.flatnonzero(values[st[0] : st[-1]] == np.repeat(m, lens)) + st[0]
    seg = np.searchsorted(st[:-1], hit, side="right") - 1
    first = np.ones(hit.shape[0], dtype=bool)
    first[1:] = seg[1:] != seg[:-1]
    arg = np.full(m.shape[0], -1, dtype=np.int64)
    arg[seg[first]] = hit[first]
    return m, np.where(arg < 0, st[1:], arg)  # no hit: the right end, or the repeated time


def _min_table(m: np.ndarray, arg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse table: row r holds (min, first argmin) over entries i..i + 2^r - 1.

    Ties go to the left window, whose argmin is the earlier time.
    """
    k = m.shape[0]
    rows = k.bit_length()
    tm = np.empty((rows, k))
    ta = np.empty((rows, k), dtype=np.int32 if arg[-1] < 2**31 else np.int64)  # args increase
    tm[0], ta[0] = m, arg
    for r in range(1, rows):
        w = 1 << (r - 1)
        lm, rm = tm[r - 1, : k - w], tm[r - 1, w:]
        right = rm < lm
        np.copyto(tm[r, : k - w], np.where(right, rm, lm))
        np.copyto(ta[r, : k - w], np.where(right, ta[r - 1, w:], ta[r - 1, : k - w]))
    return tm, ta


def _range_min(tm: np.ndarray, ta: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, first argmin) over table entries a..b inclusive, per query."""
    r = np.frexp((b - a + 1).astype(np.float64))[1] - 1  # floor(log2(length)), exactly
    c = b + 1 - (1 << r)
    lm, rm = tm[r, a], tm[r, c]
    right = rm < lm
    return np.where(right, rm, lm), np.where(right, ta[r, c], ta[r, a])


def _nearest_meets(values: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per leaf j >= 1: the leaf it meets deepest among 0..j-1, that depth, and its first argmin time.

    Range minima only shrink as the range grows, so the deepest meet is
    attained at one of the two time-adjacent inserted leaves; equal meets
    on both sides go to the earlier-inserted leaf. Each side's range is a
    run of consecutive segments between time-sorted leaves, which a sparse
    table over the segments' minima answers.
    """
    k = times.shape[0]
    order = np.argsort(times, kind="stable")
    st = times[order]
    pos = np.empty(k, dtype=np.int64)
    pos[order] = np.arange(k)
    before, after = _insertion_neighbours(order)
    tm, ta = _min_table(*_segment_minima(values, st))
    lp, p, rp = before[1:], pos[1:], after[1:]
    ml, al = np.full(k - 1, -np.inf), np.zeros(k - 1, dtype=np.int64)
    mr, ar = ml.copy(), al.copy()
    has = lp >= 0
    ml[has], al[has] = _range_min(tm, ta, lp[has], p[has] - 1)
    has = rp < k
    mr[has], ar[has] = _range_min(tm, ta, p[has], rp[has] - 1)
    leaf = np.append(order, -1)  # position -1 or k: no leaf
    lj, rj = leaf[lp], leaf[rp]
    left = (ml > mr) | ((ml == mr) & (lj < rj))
    return np.where(left, lj, rj), np.maximum(ml, mr), np.where(left, al, ar)


def _insert_leaves(values: np.ndarray, times: np.ndarray) -> tuple[list, list, list]:
    """Parent links, edge lengths and grid times of the vertices, leaves inserted in order.

    Returning drops the per-leaf lists before the projection allocates its
    per-step arrays.
    """
    leaf_t, leaf_f = times.tolist(), values[times].tolist()
    parent, edge_len, time_idx, depth = [-1, 0], [0.0, leaf_f[0]], [0, leaf_t[0]], [0.0, leaf_f[0]]
    entry = [1]  # the vertex each inserted leaf landed on; the first hangs off the root
    rows = ()
    if len(leaf_t) > 1:
        rows = zip(leaf_t[1:], leaf_f[1:], *(x.tolist() for x in _nearest_meets(values, times)))
    for ti, fi, nj, dstar, rep in rows:
        target = entry[nj]
        # walk up the root path of the chosen leaf to bracket depth dstar
        a = target
        while depth[parent[a]] > dstar:
            a = parent[a]
        b = parent[a]
        if depth[b] == dstar:
            attach = b
        elif depth[a] == dstar:
            attach = a
        else:
            attach = len(parent)
            parent.append(b)
            edge_len.append(dstar - depth[b])
            time_idx.append(rep)
            depth.append(dstar)
            parent[a] = attach
            edge_len[a] = depth[a] - dstar
        if fi > dstar:
            leaf_v = len(parent)
            parent.append(attach)
            edge_len.append(fi - dstar)
            time_idx.append(ti)
            depth.append(fi)
            entry.append(leaf_v)
        else:  # the new time projects exactly onto the attach vertex
            entry.append(attach)
    return parent, edge_len, time_idx


def spanned_tree(f: ExcursionPath, leaf_idx: np.ndarray) -> MetricTree:
    """Tree spanned by the root and the given interior grid times.

    Leaves insert one at a time, in the given order, at the deepest meet
    with the leaves inserted before them; the meet depth of two times is
    the minimum of the path between them (``_nearest_meets``). A new branch
    vertex takes the first argmin between the leaf and its target as its
    grid time, so a vertex's depth is ``values[time_idx]``. Vertex masses
    count the grid times whose nearest tree vertex, in the path
    pseudo-metric, is that vertex (``nearest_vertex``).

    The first argmin is taken from the nearest leaf's time even when that
    leaf landed on a meet vertex of another grid time: the path between the
    two stays at or above the leaf's height, which a new branch vertex lies
    strictly below, so both ranges attain the new meet at the same times.

    Cost: every leaf's meet and first argmin come before the insertion
    loop, from one reduceat over the path and a sparse table over the k
    segments between time-sorted leaves: O(n + k log k) time in numpy
    passes and O(n + k log k) memory. The loop only walks up each target's
    root path and appends vertices. The projection adds its own cost.
    """
    values = f.values
    parent, edge_len, time_idx = _insert_leaves(values, np.asarray(leaf_idx, dtype=np.int64))
    vert_idx = np.asarray(time_idx, dtype=np.int64)
    owner, proj_dist = nearest_vertex(values, vert_idx, np.asarray(parent, dtype=np.int64))
    counts = np.bincount(owner, minlength=len(parent)).astype(np.float64)
    mass = counts / counts.sum()
    extent = np.zeros(len(parent))
    np.maximum.at(extent, owner, proj_dist)
    return MetricTree(parent, edge_len, mass, vert_idx, extent)
