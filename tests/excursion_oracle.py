"""Reference builders for spanned trees: quadratic scans, kept as test oracles.

``spanned_tree`` inserts each leaf at the deepest meet among all leaves
inserted before it, recomputing running minima over the whole path per leaf
(O(k n)); ``nearest_vertex`` rescans the path once per vertex (O(V n)).
The package's builders must return the same arrays, bit for bit.
"""

from __future__ import annotations

import numpy as np

from crt_spectra.excursion import ExcursionPath, MetricTree


def lattice_path(n_steps: int, seed: int) -> ExcursionPath:
    """Integer-valued excursion: 1 + |lazy +-1 walk| inside, 0 at both ends.

    Equal heights abound, so meets, branch points and projection distances
    tie exactly.
    """
    steps = np.random.default_rng(seed).integers(-1, 2, size=n_steps - 2)
    inner = 1.0 + np.abs(np.concatenate(([0], np.cumsum(steps))))
    return ExcursionPath(np.concatenate(([0.0], inner, [0.0])))


def nearest_vertex(values: np.ndarray, vert_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner index, distance) of the d_f-nearest vertex per grid time; ties to the lowest number."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    vert_idx = np.ascontiguousarray(vert_idx, dtype=np.int64)
    n1 = values.shape[0]
    best = np.full(n1, np.inf)
    best_v = np.zeros(n1, dtype=np.int64)
    m = np.empty(n1)
    for j in range(vert_idx.shape[0]):
        tv = vert_idx[j]
        m[: tv + 1] = np.minimum.accumulate(values[: tv + 1][::-1])[::-1]
        m[tv:] = np.minimum.accumulate(values[tv:])
        d = values + values[tv] - 2.0 * m
        upd = d < best
        best[upd] = d[upd]
        best_v[upd] = j
    return best_v, best


def spanned_tree(f: ExcursionPath, leaf_idx: np.ndarray) -> MetricTree:
    """Tree spanned by the root and the given interior grid times, leaf by leaf."""
    parent = [-1]
    edge_len = [0.0]
    time_idx = [0]
    depth = [0.0]
    leaf_vertices: list[int] = []

    values = f.values
    for ti in leaf_idx:
        fi = values[ti]
        if not leaf_vertices:
            parent.append(0)
            edge_len.append(fi)
            time_idx.append(int(ti))
            depth.append(fi)
            leaf_vertices.append(1)
            continue
        left_min = np.minimum.accumulate(values[: ti + 1][::-1])[::-1]
        right_min = np.minimum.accumulate(values[ti:])
        lts = np.array([time_idx[lv] for lv in leaf_vertices])
        meets = np.where(lts < ti, left_min[np.minimum(lts, ti)], right_min[np.maximum(lts - ti, 0)])
        j = int(np.argmax(meets))
        dstar = float(meets[j])
        target = leaf_vertices[j]
        a = target
        while depth[parent[a]] > dstar:
            a = parent[a]
        b = parent[a]
        if depth[b] == dstar:
            attach = b
        elif depth[a] == dstar:
            attach = a
        else:
            lo_t, hi_t = (int(lts[j]), int(ti)) if lts[j] < ti else (int(ti), int(lts[j]))
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
            time_idx.append(int(ti))
            depth.append(fi)
            leaf_vertices.append(leaf_v)
        else:
            leaf_vertices.append(attach)

    vert_idx = np.asarray(time_idx, dtype=np.int64)
    owner, proj_dist = nearest_vertex(values, vert_idx)
    counts = np.bincount(owner, minlength=len(parent)).astype(np.float64)
    mass = counts / counts.sum()
    extent = np.zeros(len(parent))
    np.maximum.at(extent, owner, proj_dist)
    return MetricTree(parent, edge_len, mass, vert_idx, lump_extent=extent)
