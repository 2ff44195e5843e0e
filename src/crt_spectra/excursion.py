"""Brownian excursions, their pseudo-metric, and the three-way split.

Paths are nonnegative piecewise-linear functions on a uniform grid of
[0, 1], zero exactly at the endpoints. The distance between two times is
d(s, t) = f(s) + f(t) - 2 min(f on [s, t]); quotienting by d = 0 turns the
path into a random real tree, and splitting the path at the infimum between
two uniform times u, v decomposes that tree into three rescaled independent
copies whose masses form a Dirichlet(1/2,1/2,1/2) triple.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._kernels import nearest_vertex
from .cascade import MassTriple
from .errors import DegenerateSplit

_EXCURSION_MAGIC = b"CRTX"


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

    def __len__(self) -> int:
        return self.values.shape[0]

    def value_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Piecewise-linear evaluation at real times in [0, 1]."""
        x = np.asarray(t, dtype=np.float64) * self.n_steps
        out = np.interp(x, np.arange(self.n_steps + 1), self.values)
        return float(out) if np.isscalar(t) else out

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        return "\n".join(format(v, ".17g") for v in self.values) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ExcursionPath":
        vals = np.array([float(line) for line in text.strip().splitlines()])
        return cls(vals)

    def to_binary(self) -> bytes:
        head = _EXCURSION_MAGIC + struct.pack("<I", self.n_steps)
        return head + np.ascontiguousarray(self.values, dtype="<f8").tobytes()

    @classmethod
    def from_binary(cls, blob: bytes) -> "ExcursionPath":
        if blob[:4] != _EXCURSION_MAGIC:
            raise ValueError("not an excursion dump")
        (n,) = struct.unpack("<I", blob[4:8])
        vals = np.frombuffer(blob[8 : 8 + 8 * (n + 1)], dtype="<f8").astype(np.float64)
        return cls(vals)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of splitting an excursion at the infimum between two times."""

    pieces: tuple[ExcursionPath, ExcursionPath, ExcursionPath]
    uniforms: tuple[float, float, float]
    masses: MassTriple
    markers: tuple[float, float, float]  # (H, H-, H+)


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
# Pseudo-metric and split markers, piecewise-linear in real time
# ---------------------------------------------------------------------------


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
    val = np.concatenate(([f.value_at(lo)], f.values[max(k0, 0) : min(k1, n) + 1], [f.value_at(hi)]))
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
    return f.value_at(s) + f.value_at(t) - 2.0 * m


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
        local = _segment_crossings(f.values[kb], f.value_at(before), level)
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
        local = _segment_crossings(f.value_at(after), f.values[ka], level)
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
    m = f.value_at(h)
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
        vals = (f.value_at(start + grid * width) - m) / np.sqrt(width)
        vals[0] = 0.0
        vals[-1] = 0.0
        if not (vals[1:-1] > 0.0).all():
            raise DegenerateSplit("inner piece touches its minimum level")
        return ExcursionPath(vals)

    piece2 = inner_piece(start2, d2)
    piece3 = inner_piece(start3, d3)

    # outer piece: excise [H-, H+], rescale, re-root at the old root's image
    x = grid * d1
    glued = np.where(x <= h_minus, f.value_at(x), f.value_at(np.minimum(x + (h_plus - h_minus), 1.0)))
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

    def children_lists(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for v in range(self.n_vertices):
            if v != self.root:
                out[self.parent[v]].append(v)
        return out

    def depth_from_root(self) -> np.ndarray:
        d = np.zeros(self.n_vertices)
        children = self.children_lists()
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in children[v]:
                d[c] = d[v] + self.edge_len[c]
                stack.append(c)
        return d

    def distance(self, a: int, b: int) -> float:
        depth = self.depth_from_root()
        seen = set()
        pa = a
        while pa != -1:
            seen.add(pa)
            pa = int(self.parent[pa])
        anc = b
        while anc not in seen:
            anc = int(self.parent[anc])
        return float(depth[a] + depth[b] - 2.0 * depth[anc])


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


def spanned_tree(f: ExcursionPath, leaf_idx: np.ndarray) -> MetricTree:
    """Tree spanned by the root and the given interior grid times.

    Leaves insert one at a time at the deepest meet with the existing
    spanned leaves (the meet depth of two times is just the running minimum
    of the path between them). Vertex masses count the grid times whose
    nearest tree vertex, in the path pseudo-metric, is that vertex.
    """
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
        else:  # the new time projects exactly onto the attach vertex
            leaf_vertices.append(attach)

    vert_idx = np.asarray(time_idx, dtype=np.int64)
    owner, proj_dist = nearest_vertex(values, vert_idx)
    counts = np.bincount(owner, minlength=len(parent)).astype(np.float64)
    mass = counts / counts.sum()
    extent = np.zeros(len(parent))
    np.maximum.at(extent, owner, proj_dist)
    return MetricTree(parent, edge_len, mass, vert_idx, lump_extent=extent)
