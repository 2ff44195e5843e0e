"""Test oracles for the excursion route: the three-way split and tree geometry.

The split at the infimum between two times is the paper's random
self-similarity: it cuts the excursion's tree into three rescaled copies
whose masses form a Dirichlet(1/2,1/2,1/2) triple, and the tests check that
law on sampled paths. ``excursion_distance`` is the path pseudo-metric,
and the tree helpers measure a spanned tree's depths and distances the
slow way.

``spanned_tree``, ``nearest_vertex`` and ``gap_minima`` are the reference
builders: ``spanned_tree`` inserts each leaf at the deepest meet among all
leaves inserted before it, recomputing running minima over the whole path
per leaf (O(k n)); ``nearest_vertex`` rescans the path once per vertex
(O(V n)); ``gap_minima`` scans the gaps between vertex times one at a time.
The package's builders must return the same arrays, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crt_spectra.excursion import ExcursionPath, MetricTree


class DegenerateSplit(Exception):
    """An excursion split produced a piece too small to carry information."""


@dataclass(frozen=True)
class MassTriple:
    """One Dirichlet(1/2,1/2,1/2) split of unit mass."""

    d1: float
    d2: float
    d3: float

    def __post_init__(self):
        s = self.d1 + self.d2 + self.d3
        if not (abs(s - 1.0) <= 1e-12 and self.d1 > 0 and self.d2 > 0 and self.d3 > 0):
            raise ValueError(f"not a valid mass triple: {(self.d1, self.d2, self.d3)}")


@dataclass(frozen=True)
class SplitResult:
    """Outcome of splitting an excursion at the infimum between two times."""

    pieces: tuple[ExcursionPath, ExcursionPath, ExcursionPath]
    uniforms: tuple[float, float, float]
    masses: MassTriple
    markers: tuple[float, float, float]  # (H, H-, H+)


# -- pseudo-metric and split markers, piecewise-linear in real time ---------------


def value_at(f: ExcursionPath, t: float | np.ndarray) -> float | np.ndarray:
    """Piecewise-linear evaluation at real times in [0, 1]."""
    x = np.asarray(t, dtype=np.float64) * f.n_steps
    out = np.interp(x, np.arange(f.n_steps + 1), f.values)
    return float(out) if np.isscalar(t) else out


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    return t


def _interval_min(f: ExcursionPath, lo: float, hi: float) -> tuple[float, float]:
    """(argmin position, min value) of f on [lo, hi].

    Ties break to the smallest time, except that an interior attainment
    wins over the interval endpoints (endpoint attainment is the boundary
    of the degenerate set for the split markers; preferring the interior
    keeps the split defined there and agrees with the generic case).
    """
    n = f.n_steps
    k0 = int(np.ceil(lo * n - 1e-12))
    k1 = int(np.floor(hi * n + 1e-12))
    pos = np.array([lo] + [k / n for k in range(max(k0, 0), min(k1, n) + 1)] + [hi])
    val = np.concatenate(([value_at(f, lo)], f.values[max(k0, 0) : min(k1, n) + 1], [value_at(f, hi)]))
    vmin = val.min()
    attained = np.nonzero(val == vmin)[0]
    interior = attained[(pos[attained] > lo) & (pos[attained] < hi)]
    i = int(interior[0]) if interior.size else int(attained[0])
    return float(pos[i]), float(vmin)


def excursion_distance(f: ExcursionPath, s: float, t: float) -> float:
    """d(s, t) = f(s) + f(t) - 2 min(f on [s, t]); a pseudo-metric on times."""
    s, t = _check_time(s), _check_time(t)
    lo, hi = (s, t) if s <= t else (t, s)
    _, m = _interval_min(f, lo, hi)
    return value_at(f, s) + value_at(f, t) - 2.0 * m


def _segment_crossings(a: float, b: float, level: float) -> float | None:
    """Fraction in [0,1] where the chord a->b meets level, or None."""
    ga, gb = a - level, b - level
    if ga == 0.0:
        return 0.0
    if gb == 0.0:
        return 1.0
    if (ga > 0) == (gb > 0):
        return None
    return ga / (ga - gb)


def _last_time_at_level(f: ExcursionPath, level: float, before: float) -> float:
    """Largest t < before with f(t) == level (piecewise-linear crossing)."""
    n = f.n_steps
    x = before * n
    kb = int(np.floor(x))
    if kb < n and x > kb:  # partial segment [kb/n, before)
        local = _segment_crossings(f.values[kb], value_at(f, before), level)
        if local is not None:
            t = (kb + local * (x - kb)) / n
            if t < before:
                return t
    for k in range(min(kb, n) - 1, -1, -1):
        local = _segment_crossings(f.values[k], f.values[k + 1], level)
        if local is not None:
            t = (k + local) / n
            if t < before:
                return t
    raise DegenerateSplit(f"no crossing of level {level} before {before}")


def _first_time_at_level(f: ExcursionPath, level: float, after: float) -> float:
    """Smallest t > after with f(t) == level."""
    n = f.n_steps
    x = after * n
    ka = int(np.ceil(x))
    if ka > x:  # partial segment (after, ka/n]
        local = _segment_crossings(value_at(f, after), f.values[ka], level)
        if local is not None:
            t = (x + local * (ka - x)) / n
            if t > after:
                return t
    for k in range(ka, n):
        local = _segment_crossings(f.values[k], f.values[k + 1], level)
        if local is not None:
            t = (k + local) / n
            if t > after:
                return t
    raise DegenerateSplit(f"no crossing of level {level} after {after}")


def split_markers(f: ExcursionPath, u: float, v: float) -> tuple[float, float, float]:
    """(H, H-, H+): argmin location on [u, v] and its level crossings outside.

    H is the (tie-broken smallest) argmin of f on [u ^ v, u v v]; H- is the
    last time before that interval at level f(H), H+ the first time after.
    The u > v case mirrors through the sorted interval.
    """
    u, v = _check_time(u), _check_time(v)
    if u == v:
        raise DegenerateSplit("split times coincide")
    if not (0.0 < u < 1.0 and 0.0 < v < 1.0):
        raise ValueError("split times must be strictly inside (0, 1)")
    lo, hi = (u, v) if u < v else (v, u)
    h, m = _interval_min(f, lo, hi)
    h_minus = _last_time_at_level(f, m, lo)
    h_plus = _first_time_at_level(f, m, hi)
    return h, h_minus, h_plus


def branch_masses(f: ExcursionPath, u: float, v: float) -> tuple[float, float, float]:
    """Masses of the three components at the branch point of (root, [u], [v]).

    Component 1 contains the root, component 2 contains u, component 3
    contains v; they are the time spans cut out by the markers.
    """
    h, h_minus, h_plus = split_markers(f, u, v)
    d1 = 1.0 + h_minus - h_plus
    left, right = h - h_minus, h_plus - h
    if u < v:
        return d1, left, right
    return d1, right, left


def _reroot_grid(values: np.ndarray, iu: int) -> np.ndarray:
    """Excursion of the same tree re-rooted at grid index iu.

    New path t -> d(iu, iu + t mod 1) computed with grid running minima.
    """
    n = values.shape[0] - 1
    right_min = np.minimum.accumulate(values[iu:])
    left_min = np.minimum.accumulate(values[: iu + 1][::-1])[::-1]
    base = values[iu]
    out = np.empty(n + 1)
    out[: n - iu + 1] = base + values[iu:] - 2.0 * right_min
    out[n - iu :] = base + values[: iu + 1] - 2.0 * left_min
    out[0] = 0.0
    out[-1] = 0.0
    return out


def decompose(f: ExcursionPath, u: float, v: float) -> SplitResult:
    """Split an excursion into three rescaled normalised excursions.

    Pieces use Brownian scaling (1/mass in time, 1/sqrt(mass) in height) and
    are resampled onto the same uniform grid by linear interpolation. Piece
    1 is the outer part re-rooted at the original root's image (snapped to
    the grid); pieces 2 and 3 contain u and v. Splits in which any piece
    would round below two grid cells raise DegenerateSplit.
    """
    n = f.n_steps
    h, h_minus, h_plus = split_markers(f, u, v)
    m = value_at(f, h)
    d1 = 1.0 + h_minus - h_plus
    d_left, d_right = h - h_minus, h_plus - h
    if u < v:
        d2, d3 = d_left, d_right
        start2, start3 = h_minus, h
        u2 = (u - h_minus) / d2
        u3 = (v - h) / d3
    else:
        d2, d3 = d_right, d_left
        start2, start3 = h, h_minus
        u2 = (u - h) / d2
        u3 = (v - h_minus) / d3
    for d in (d1, d2, d3):
        if d * n < 2.0:
            raise DegenerateSplit(f"piece of mass {d} rounds below two grid cells")

    grid = np.arange(n + 1) / n

    def inner_piece(start: float, width: float) -> ExcursionPath:
        vals = (value_at(f, start + grid * width) - m) / np.sqrt(width)
        vals[0] = 0.0
        vals[-1] = 0.0
        if not (vals[1:-1] > 0.0).all():
            raise DegenerateSplit("inner piece touches its minimum level")
        return ExcursionPath(vals)

    piece2 = inner_piece(start2, d2)
    piece3 = inner_piece(start3, d3)

    # outer piece: excise [H-, H+], rescale, re-root at the old root's image
    x = grid * d1
    glued = np.where(x <= h_minus, value_at(f, x), value_at(f, np.minimum(x + (h_plus - h_minus), 1.0)))
    glued = glued / np.sqrt(d1)
    glued[0] = 0.0
    glued[-1] = 0.0
    u1_tilde = h_minus / d1
    iu = int(round(u1_tilde * n))
    vals1 = _reroot_grid(glued, iu)
    if not (vals1[1:-1] > 0.0).all():
        raise DegenerateSplit("outer piece is degenerate after re-rooting")
    piece1 = ExcursionPath(vals1)

    masses = MassTriple(d1, d2, d3)
    return SplitResult(
        pieces=(piece1, piece2, piece3),
        uniforms=(1.0 - u1_tilde, u2, u3),
        masses=masses,
        markers=(h, h_minus, h_plus),
    )


# -- tree geometry ------------------------------------------------------------------


def children_lists(tree: MetricTree) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(tree.n_vertices)]
    for v in range(1, tree.n_vertices):
        out[tree.parent[v]].append(v)
    return out


def depth_from_root(tree: MetricTree) -> np.ndarray:
    d = np.zeros(tree.n_vertices)
    children = children_lists(tree)
    stack = [0]
    while stack:
        v = stack.pop()
        for c in children[v]:
            d[c] = d[v] + tree.edge_len[c]
            stack.append(c)
    return d


def tree_distance(tree: MetricTree, a: int, b: int) -> float:
    depth = depth_from_root(tree)
    seen = set()
    pa = a
    while pa != -1:
        seen.add(pa)
        pa = int(tree.parent[pa])
    anc = b
    while anc not in seen:
        anc = int(tree.parent[anc])
    return float(depth[a] + depth[b] - 2.0 * depth[anc])


# -- reference builders -------------------------------------------------------------


def lattice_path(n_steps: int, seed: int) -> ExcursionPath:
    """Integer-valued excursion: 1 + |lazy +-1 walk| inside, 0 at both ends.

    Equal heights abound, so meets, branch points and projection distances
    tie exactly.
    """
    steps = np.random.default_rng(seed).integers(-1, 2, size=n_steps - 2)
    inner = 1.0 + np.abs(np.concatenate(([0], np.cumsum(steps))))
    return ExcursionPath(np.concatenate(([0.0], inner, [0.0])))


def gap_minima(values: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running minima of ``values`` within each gap [lo[g], lo[g + 1]], one gap at a time.

    The last gap ends at the end of the path; a gap's right end belongs to
    the next gap, which overwrites it.
    """
    pre = np.empty_like(values)
    suf = np.empty_like(values)
    ends = lo[1:].tolist() + [values.shape[0] - 1]
    for a, b in zip(lo.tolist(), ends):
        seg = values[a : b + 1]
        np.minimum.accumulate(seg, out=pre[a : b + 1])
        np.minimum.accumulate(seg[::-1], out=suf[a : b + 1][::-1])
    return pre, suf


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
    return MetricTree(parent, edge_len, mass, vert_idx, extent)
