"""Hot numeric kernels: counter-based RNG, tree eliminations, grid projection.

Everything is vectorized numpy. The random bits and transcendental math
run on whole arrays of address codes; the eliminations and the projection
stick to +-*/ and comparisons in a fixed evaluation order, so every count
and distance is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

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
# Eigenvalue counting on the self-similar dendrite.
#
# One elimination pass per refinement level, deepest first: each cell's tip
# is a dangling leaf, its midpoint then has degree two, and eliminating both
# leaves a single fill edge on the parent cell. The tree order guarantees
# zero fill beyond that, so a full factorization of L - lambda*M costs O(V).
#
# Pivots are carried in excess-admittance form: each vertex accumulates
# acc[v] = sum of y-terms from eliminated neighbors, where a neighbor with
# pivot p reachable through conductance c contributes y = c*(p - c)/p, and
# the vertex's own pivot is (sum of live couplings) + acc[v] - lambda*m[v].
# This avoids forming the degree sum and subtracting nearly equal fills,
# which loses the pivot's sign when the local conductance scale exceeds the
# effective one by ~1/eps (large depths, lambda near or below the spectral
# floor). Boundary vertices (ids 0 and 1) are pivoted last; interior pivots
# are shared between the Neumann problem and the Dirichlet problem, so one
# sweep yields both counts.
# ---------------------------------------------------------------------------


def counts_dendrite(
    mass: np.ndarray,
    conduct: np.ndarray,
    ep0f: np.ndarray,
    ep1f: np.ndarray,
    offs: np.ndarray,
    depth: int,
    lams: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann) eigenvalue counts <= lambda for each grid value."""
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    nlam = lams.shape[0]
    nv = mass.shape[0]
    out_d = np.zeros(nlam, dtype=np.int64)
    out_n = np.zeros(nlam, dtype=np.int64)
    for t in range(nlam):
        lam = lams[t]
        if lam < 0.0:
            continue
        if lam == 0.0:
            out_n[t] = 1  # constant eigenfunction on a connected tree
            continue
        lam_eff = lam * (1.0 + 1e-12)
        acc = np.zeros(nv)
        g = conduct.copy()
        interior = 0
        nc = conduct.shape[0]
        for q in range(depth - 1, -1, -1):
            nc //= 3
            vq = nc + 1
            g1 = g[0 : 3 * nc : 3].copy()
            g2 = g[1 : 3 * nc : 3].copy()
            g3 = g[2 : 3 * nc : 3]
            mids = vq + 2 * np.arange(nc)
            ht = acc[mids + 1] - lam_eff * mass[mids + 1]
            pt = g3 + ht
            pt = np.where(pt == 0.0, -_ZERO_PIVOT, pt)
            interior += int((pt <= 0.0).sum())
            hm = acc[mids] + g3 * ht / pt - lam_eff * mass[mids]
            pm = g1 + g2 + hm
            pm = np.where(pm == 0.0, -_ZERO_PIVOT, pm)
            interior += int((pm <= 0.0).sum())
            e0 = ep0f[offs[q] : offs[q + 1]]
            e1 = ep1f[offs[q] : offs[q + 1]]
            np.add.at(acc, e0, g1 * hm / pm)
            np.add.at(acc, e1, g2 * hm / pm)
            g[:nc] = g1 * g2 / pm
        h0 = acc[0] - lam_eff * mass[0]
        p0 = g[0] + h0
        if p0 == 0.0:
            p0 = -_ZERO_PIVOT
        extra = 1 if p0 <= 0.0 else 0
        p1 = acc[1] - lam_eff * mass[1] + g[0] * h0 / p0
        if p1 == 0.0:
            p1 = -_ZERO_PIVOT
        extra += 1 if p1 <= 0.0 else 0
        out_d[t] = interior
        out_n[t] = interior + extra
    return out_d, out_n


# ---------------------------------------------------------------------------
# Eigenvalue counting on an arbitrary finite tree (parent-pointer form).
#
# The Neumann count eliminates every vertex leaf-first toward the root; the
# Dirichlet count runs the same order with both boundary vertices (root and
# one marked vertex) deleted, which splits the tree into a forest and never
# creates fill. Pivots are carried in the same excess-admittance form as
# the dendrite pass: pivot(v) = coup(v) + acc(v) - lambda m(v), and the
# eliminated vertex sends y = coup * h / pivot up to its parent. A deleted
# boundary vertex leaves its edge behind as a grounded leg (+coup on the
# parent's accumulator, no coupling). Waves group vertices at equal depth,
# so each wave is one vectorized step; ``np.add.at`` sums a parent's
# contributions in the order its children appear in the wave.
# ---------------------------------------------------------------------------


def counts_tree(mass, coup, parent, order, wave_offs, root, other, lams):
    """(Dirichlet, Neumann) counts for a parent-pointer tree pencil."""
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    nlam = lams.shape[0]
    nv = mass.shape[0]
    out_d = np.zeros(nlam, dtype=np.int64)
    out_n = np.zeros(nlam, dtype=np.int64)
    nwaves = wave_offs.shape[0] - 1
    for t in range(nlam):
        lam = lams[t]
        if lam < 0.0:
            continue
        if lam == 0.0:
            out_n[t] = 1
            continue
        lam_eff = lam * (1.0 + 1e-12)
        # Neumann: full elimination into the root
        acc = np.zeros(nv)
        neg = 0
        for w in range(nwaves):
            vs = order[wave_offs[w] : wave_offs[w + 1]]
            h = acc[vs] - lam_eff * mass[vs]
            p = coup[vs] + h
            p = np.where(p == 0.0, -_ZERO_PIVOT, p)
            neg += int((p <= 0.0).sum())
            np.add.at(acc, parent[vs], coup[vs] * h / p)
        pr = acc[root] - lam_eff * mass[root]
        if pr == 0.0:
            pr = -_ZERO_PIVOT
        out_n[t] = neg + (1 if pr <= 0.0 else 0)
        # Dirichlet: boundary rows/columns removed, edges to them grounded
        acc = np.zeros(nv)
        acc[parent[other]] += coup[other]
        neg = 0
        for w in range(nwaves):
            vs = order[wave_offs[w] : wave_offs[w + 1]]
            vs = vs[vs != other]
            if vs.shape[0] == 0:
                continue
            h = acc[vs] - lam_eff * mass[vs]
            p = coup[vs] + h
            p = np.where(p == 0.0, -_ZERO_PIVOT, p)
            neg += int((p <= 0.0).sum())
            par = parent[vs]
            keep = (par != root) & (par != other)
            np.add.at(acc, par[keep], (coup[vs] * h / p)[keep])
        out_d[t] = neg
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
