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
    """Finite metric tree with parent links, edge lengths and vertex masses.

    ``lump_extent`` records, per vertex, the largest path distance from the
    vertex to a grid time whose mass was lumped onto it (zero when no
    off-tree mass hangs there); it feeds spectral-resolution estimates.
    """

    def __init__(self, parent, edge_len, mass, time_idx, root: int = 0, lump_extent=None):
        self.parent = np.asarray(parent, dtype=np.int64)
        self.edge_len = np.asarray(edge_len, dtype=np.float64)
        self.mass = np.asarray(mass, dtype=np.float64)
        self.time_idx = np.asarray(time_idx, dtype=np.int64)
        self.root = root
        self.lump_extent = (
            np.zeros(self.parent.shape[0]) if lump_extent is None else np.asarray(lump_extent, dtype=np.float64)
        )
        if (self.edge_len[np.arange(len(self.parent)) != root] <= 0).any():
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


def _insertion_neighbours(times: list[int]) -> tuple[list[int], list[int]]:
    """Per leaf j, the latest-time and earliest-time leaves among 0..j-1 around it.

    Returns (before, after) as leaf indices, -1 where there is none; ties
    in time sort by index. Found offline in O(k log k): sort once, then
    unlink the leaves from a doubly linked list in reverse insertion order.
    """
    k = len(times)
    order = [-1] + np.argsort(np.asarray(times, dtype=np.int64), kind="stable").tolist() + [-1]
    pos = [0] * k
    for p in range(1, k + 1):
        pos[order[p]] = p
    prev, nxt = list(range(-1, k + 1)), list(range(1, k + 3))
    before, after = [-1] * k, [-1] * k
    for j in range(k - 1, -1, -1):
        p = pos[j]
        lo, hi = prev[p], nxt[p]
        before[j], after[j] = order[lo], order[hi]
        nxt[lo], prev[hi] = hi, lo
    return before, after


def spanned_tree(f: ExcursionPath, leaf_idx: np.ndarray) -> MetricTree:
    """Tree spanned by the root and the given interior grid times.

    Leaves insert one at a time, in the given order, at the deepest meet
    with the leaves inserted before them; the meet depth of two times is
    the minimum of the path between them. Range minima only shrink as the
    range grows, so that meet is attained at a time-adjacent inserted leaf,
    and each leaf takes two slice minima, to its neighbours in time; equal
    meets on both sides go to the earlier-inserted leaf. A new branch
    vertex takes the first argmin between the leaf and its target as its
    grid time, so a vertex's depth is ``values[time_idx]``. Vertex masses
    count the grid times whose nearest tree vertex, in the path
    pseudo-metric, is that vertex (``nearest_vertex``).

    Cost: O(k log k) to find the neighbours, about n ln k element
    operations of slice minima for random leaf order, the walks up each
    target's root path, and O(n + k) memory; the projection adds its own.
    """
    values = f.values
    leaf_idx = [int(t) for t in leaf_idx]
    before, after = _insertion_neighbours(leaf_idx)
    parent = [-1]
    edge_len = [0.0]
    time_idx = [0]
    depth = [0.0]
    entry: list[int] = []  # the vertex each inserted leaf landed on

    for j, ti in enumerate(leaf_idx):
        fi = values[ti]
        if j == 0:
            parent.append(0)
            edge_len.append(fi)
            time_idx.append(ti)
            depth.append(fi)
            entry.append(1)
            continue
        lj, rj = before[j], after[j]
        ml = values[leaf_idx[lj] : ti + 1].min() if lj >= 0 else -np.inf
        mr = values[ti : leaf_idx[rj] + 1].min() if rj >= 0 else -np.inf
        near = lj if ml > mr or (ml == mr and lj < rj) else rj
        dstar = float(max(ml, mr))
        target = entry[near]
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
            lo_t, hi_t = sorted((time_idx[target], ti))
            rep = lo_t + int(np.argmin(values[lo_t : hi_t + 1]))
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

    vert_idx = np.asarray(time_idx, dtype=np.int64)
    owner, proj_dist = nearest_vertex(values, vert_idx, np.asarray(parent, dtype=np.int64))
    counts = np.bincount(owner, minlength=len(parent)).astype(np.float64)
    mass = counts / counts.sum()
    extent = np.zeros(len(parent))
    np.maximum.at(extent, owner, proj_dist)
    return MetricTree(parent, edge_len, mass, vert_idx, lump_extent=extent)
