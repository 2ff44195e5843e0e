"""Hot numeric kernels: counter-based RNG, tree eliminations, grid projection.

Everything is vectorized numpy. The random bits and transcendental math
run on whole arrays of address codes; the eliminations and the projection
stick to +-*/ and comparisons in a fixed evaluation order, so every count
and distance is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1

# Guard value for exact-zero pivots; the nudged shift makes these
# unreachable in practice, the replacement just keeps division defined.
_ZERO_PIVOT = 1e-30


# ---------------------------------------------------------------------------
# Counter-based RNG (splitmix64 finalizer).
#
# Cascade triples are keyed by (stream key, address code), so any address is
# reproducible without sampling its siblings and independent of traversal
# order or thread count.
# ---------------------------------------------------------------------------


def mix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (x + _GOLD).astype(np.uint64) if isinstance(x, np.ndarray) else np.uint64((int(x) + int(_GOLD)) & _U64_MASK)
    z = z ^ (z >> np.uint64(30))
    z = (z * _MIX1).astype(np.uint64) if isinstance(z, np.ndarray) else np.uint64((int(z) * int(_MIX1)) & _U64_MASK)
    z = z ^ (z >> np.uint64(27))
    z = (z * _MIX2).astype(np.uint64) if isinstance(z, np.ndarray) else np.uint64((int(z) * int(_MIX2)) & _U64_MASK)
    z = z ^ (z >> np.uint64(31))
    return z


def derive_key(*parts: int) -> np.uint64:
    """Fold integer parts (seed, replica, purpose tag, ...) into a stream key."""
    k = np.uint64(0)
    for p in parts:
        k = mix64(np.uint64((int(k) + (int(p) & _U64_MASK)) & _U64_MASK))
    return k


def _unit_open(x: np.ndarray) -> np.ndarray:
    # uniforms in the open interval (0, 1): safe for log and angle maps
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def _raw_normals(key: np.uint64, codes: np.ndarray, salt: int) -> np.ndarray:
    """Three standard normals per code via Box-Muller, shape (len(codes), 3)."""
    base = mix64(codes + mix64(np.uint64((int(key) + salt * int(_GOLD)) & _U64_MASK)))
    u = np.empty((codes.shape[0], 4))
    for j in range(4):
        base = (base + _GOLD).astype(np.uint64)
        u[:, j] = _unit_open(mix64(base))
    r1 = np.sqrt(-2.0 * np.log(u[:, 0]))
    a1 = 2.0 * np.pi * u[:, 1]
    r2 = np.sqrt(-2.0 * np.log(u[:, 2]))
    a2 = 2.0 * np.pi * u[:, 3]
    z = np.empty((codes.shape[0], 3))
    z[:, 0] = r1 * np.cos(a1)
    z[:, 1] = r1 * np.sin(a1)
    z[:, 2] = r2 * np.cos(a2)
    return z


def dirichlet_half_triples(key: np.uint64, codes: np.ndarray) -> np.ndarray:
    """Exact Dirichlet(1/2,1/2,1/2) triples keyed per address code.

    Gamma(1/2, 1) variates are realized as Z**2 / 2 with Z standard normal
    (the chi-square(1) representation), which is exact in law and consumes a
    fixed number of uniforms per draw -- a requirement for counter-based
    streams. Degenerate draws (an exact floating-point zero component) are
    redrawn with a bumped salt.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    z = _raw_normals(key, codes, 0)
    g = 0.5 * z * z
    tot = g.sum(axis=1)
    out = g / tot[:, None]
    bad = ~np.isfinite(out).all(axis=1) | (out <= 0.0).any(axis=1)
    salt = 1
    while bad.any():  # pragma: no cover - probability ~ 0
        zb = _raw_normals(key, codes[bad], salt)
        gb = 0.5 * zb * zb
        out[bad] = gb / gb.sum(axis=1)[:, None]
        bad = ~np.isfinite(out).all(axis=1) | (out <= 0.0).any(axis=1)
        salt += 1
    return out


def uniform_indices(key: np.uint64, salt: int, count: int, bound: int) -> np.ndarray:
    """Deterministic pseudo-uniform indices in [0, bound)."""
    codes = np.arange(count, dtype=np.uint64)
    h = mix64(codes + mix64(np.uint64((int(key) + salt * int(_GOLD)) & _U64_MASK)))
    return (h % np.uint64(bound)).astype(np.int64)


# ---------------------------------------------------------------------------
# Eigenvalue counting on a finite tree by Sylvester inertia.
#
# A contraction schedule (Miller and Reif 1985) eliminates every vertex but
# the two boundary vertices in O(log V) rounds on trees of bounded degree.
# A round rakes leaves, at most one per target (its highest-numbered), then
# compresses the degree-two vertices whose mix64 priority beats every
# degree-two neighbour's, each into a fill edge between its neighbours.
# Nothing else fills in, so factoring L - lambda*M costs O(V) per shift. On
# the dendrite's numbering a round is one refinement level, deepest first:
# tips are raked and midpoints compressed in cell order, which reproduces
# the pivots of a level-by-level pass bit for bit.
#
# Pivots are carried in excess-admittance form: each vertex accumulates
# acc[v] = sum of y-terms from eliminated neighbors, where a neighbor with
# pivot p reachable through conductance c contributes y = c*(p - c)/p, and
# the vertex's own pivot is (sum of live couplings) + acc[v] - lambda*m[v].
# This avoids forming the degree sum and subtracting nearly equal fills,
# which loses the pivot's sign when the local conductance scale exceeds the
# effective one by ~1/eps (large depths, lambda near or below the spectral
# floor). The boundary vertices are pivoted last, so the interior pivots
# factor the Dirichlet block as well and one sweep yields both counts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionSchedule:
    """Rounds ``(leaf, target, leaf_slot, mid, a, b, slot_a, slot_b, fill)``.

    Raked leaves with their targets and edge slots, then compressed vertices
    with their neighbours (``a`` through the lower slot) and edge slots; the
    i-th fill edge of a round takes slot ``fill + i``. An index set is an
    int64 array, or a slice where it is an arithmetic progression (every
    set on the dendrite but ``a`` and ``b``), which keeps the schedule as
    small as the level graph and lets the kernel read views.
    """

    rounds: tuple[tuple, ...]
    n_slots: int
    final: int  # the slot joining b0 and b1
    b0: int
    b1: int


def _strided(idx: np.ndarray):
    if idx.shape[0] > 1:
        step = int(idx[1] - idx[0])
        if step > 0 and (np.diff(idx) == step).all():
            return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _ends(lu: np.ndarray, lv: np.ndarray, ls: np.ndarray, cand: np.ndarray):
    # (vertex, neighbour, slot) for each end of a live edge at a candidate vertex
    cu, cv = cand[lu], cand[lv]
    return np.concatenate((lu[cu], lv[cv])), np.concatenate((lv[cu], lu[cv])), np.concatenate((ls[cu], ls[cv]))


def contraction_schedule(edge_u, edge_v, n_vertices: int, b0: int, b1: int) -> ContractionSchedule:
    """Rake/compress rounds that eliminate every vertex of a tree but b0 and b1."""
    # int32 halves the build's transient memory; the schedule keeps int64
    lu = np.asarray(edge_u).astype(np.int32)
    lv = np.asarray(edge_v).astype(np.int32)
    nv, ne = int(n_vertices), lu.shape[0]
    if connected_components(coo_matrix((np.ones(ne), (lu, lv)), shape=(nv, nv)), return_labels=False) != 1:
        raise ValueError("pencil graph is not connected")
    if ne != nv - 1:
        raise ValueError("pencil graph is not a tree")
    inner = np.isin(np.arange(nv), (b0, b1), invert=True)
    deg = np.bincount(lu, minlength=nv) + np.bincount(lv, minlength=nv)  # kept for live vertices only
    dead = np.zeros(ne + nv, dtype=bool)
    ls = np.arange(ne, dtype=np.int32)  # live edges: endpoints lu, lv and slot ls; fills append slots
    n_slots, rounds = ne, []
    while ls.shape[0] > 1:
        # rake the inner leaves, at most one per target: its highest-numbered
        leaf, target, leaf_slot = _ends(lu, lv, ls, inner & (deg == 1))
        o = np.lexsort((-leaf, target))
        o = o[np.unique(target[o], return_index=True)[1]]
        leaf, target, leaf_slot = leaf[o], target[o], leaf_slot[o]
        deg[target] -= 1
        dead[leaf_slot] = True
        keep = ~dead[ls]
        lu, lv, ls = lu[keep], lv[keep], ls[keep]

        # compress the degree-two inner vertices that outrank their degree-two
        # neighbours; a is the neighbour through the lower slot
        cand = inner & (deg == 2)
        mid, nbr, slot = _ends(lu, lv, ls, cand)
        o = np.lexsort((slot, mid))
        lo, hi = o[0::2], o[1::2]
        mid, a, b, slot_a, slot_b = mid[lo], nbr[lo], nbr[hi], slot[lo], slot[hi]
        pm = mix64(mid.astype(np.uint64))
        win = (~cand[a] | (pm > mix64(a.astype(np.uint64)))) & (~cand[b] | (pm > mix64(b.astype(np.uint64))))
        mid, a, b, slot_a, slot_b = mid[win], a[win], b[win], slot_a[win], slot_b[win]
        dead[slot_a] = dead[slot_b] = True
        keep = ~dead[ls]
        fill = np.arange(n_slots, n_slots + mid.shape[0], dtype=np.int32)
        lu, lv, ls = np.concatenate((lu[keep], a)), np.concatenate((lv[keep], b)), np.concatenate((ls[keep], fill))
        parts = (leaf, target, leaf_slot, mid, a, b, slot_a, slot_b)
        rounds.append((*(_strided(x.astype(np.int64)) for x in parts), n_slots))
        n_slots += mid.shape[0]
    return ContractionSchedule(tuple(rounds), n_slots, int(ls[0]), int(b0), int(b1))


def inertia_counts(
    sched: ContractionSchedule, mass: np.ndarray, conduct: np.ndarray, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann) eigenvalue counts <= lambda for each grid value."""
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    b0, b1 = sched.b0, sched.b1
    out_d = np.zeros(lams.shape[0], dtype=np.int64)
    out_n = np.zeros(lams.shape[0], dtype=np.int64)
    for t, lam in enumerate(lams):
        if lam < 0.0:
            continue
        if lam == 0.0:
            out_n[t] = 1  # constant eigenfunction on a connected tree
            continue
        lam_eff = lam * (1.0 + 1e-12)
        acc = np.zeros(mass.shape[0])
        g = np.empty(sched.n_slots)
        g[: conduct.shape[0]] = conduct
        interior = 0
        for leaf, target, leaf_slot, mid, a, b, slot_a, slot_b, fill in sched.rounds:
            c = g[leaf_slot]
            h = acc[leaf] - lam_eff * mass[leaf]
            p = c + h
            p = np.where(p == 0.0, -_ZERO_PIVOT, p)
            interior += int((p <= 0.0).sum())
            acc[target] += c * h / p
            ga, gb = g[slot_a], g[slot_b]
            h = acc[mid] - lam_eff * mass[mid]
            p = ga + gb + h
            p = np.where(p == 0.0, -_ZERO_PIVOT, p)
            interior += int((p <= 0.0).sum())
            np.add.at(acc, a, ga * h / p)
            np.add.at(acc, b, gb * h / p)
            g[fill : fill + ga.shape[0]] = ga * gb / p
        gf = g[sched.final]
        h0 = acc[b0] - lam_eff * mass[b0]
        p0 = gf + h0
        if p0 == 0.0:
            p0 = -_ZERO_PIVOT
        extra = 1 if p0 <= 0.0 else 0
        p1 = acc[b1] - lam_eff * mass[b1] + gf * h0 / p0
        if p1 == 0.0:
            p1 = -_ZERO_PIVOT
        extra += 1 if p1 <= 0.0 else 0
        out_d[t] = interior
        out_n[t] = interior + extra
    return out_d, out_n


# ---------------------------------------------------------------------------
# Nearest-vertex projection of excursion grid times onto a spanned subtree.
# ---------------------------------------------------------------------------


def nearest_vertex(values: np.ndarray, vert_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner index, distance) of the d_f-nearest tree vertex per grid time.

    ``vert_idx`` holds the representative grid index of each tree vertex.
    Ties go to the lowest vertex number.
    """
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
