"""Hot numeric kernels: counter-based RNG, tree eliminations, grid projection.

Everything is vectorized numpy. The random bits and the sampler's
trigonometry run on whole arrays of address codes; the eliminations and
the projection stick to +-*/ and comparisons in a fixed evaluation order,
so every count and distance is reproducible bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_RNG_BLOCK = 1 << 14  # codes per pass of the triple and perturbation samplers
_SHIFT_BLOCK_BYTES = 1 << 20  # acc and g bytes per pass of the counting sweep

# Every count <= lambda pivots at lambda (1 + NUDGE), so an eigenvalue at
# exactly lambda is counted whatever the rounding.
NUDGE = 1e-12

# Guard value for exact-zero pivots; the nudged shift makes these
# unreachable in practice, the replacement just keeps division defined.
_ZERO_PIVOT = 1e-30


# ---------------------------------------------------------------------------
# Counter-based RNG (splitmix64 finalizer; Salmon et al. 2011).
#
# Cascade triples and base-level perturbations are keyed by (stream key,
# address code), so any address is reproducible without sampling its
# siblings and independent of traversal order or thread count. For a triple
# each code hashes to two uniforms, which the Archimedes map of the sphere
# turns into one Dirichlet(1/2,1/2,1/2) triple; for a perturbation it
# hashes to one uniform, which the inverse Rayleigh CDF turns into R.
# RANDOM_STREAM names both maps; it changes whenever a seed would draw
# different triples or perturbations, and run records carry it.
# ---------------------------------------------------------------------------

RANDOM_STREAM = "splitmix64-archimedes-rayleigh"


def mix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = x + _GOLD if isinstance(x, np.ndarray) else np.uint64((int(x) + int(_GOLD)) & _U64_MASK)
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1 if isinstance(z, np.ndarray) else np.uint64((int(z) * int(_MIX1)) & _U64_MASK)
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX2 if isinstance(z, np.ndarray) else np.uint64((int(z) * int(_MIX2)) & _U64_MASK)
    z = z ^ (z >> np.uint64(31))
    return z


def derive_key(*parts: int) -> np.uint64:
    """Fold integer parts (seed, replica, purpose tag, ...) into a stream key."""
    k = np.uint64(0)
    for p in parts:
        k = mix64(np.uint64((int(k) + (int(p) & _U64_MASK)) & _U64_MASK))
    return k


def _unit_open(x: np.ndarray) -> np.ndarray:
    # uniforms from the top 53 bits, never 0 (so z**2 > 0); the largest bit
    # pattern rounds to exactly 1 (probability 2**-53), which leaves a zero
    # component that the triple guard redraws
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def _archimedes(key: np.uint64, codes: np.ndarray, salt: int) -> np.ndarray:
    """((1 - z**2) cos**2 phi, (1 - z**2) sin**2 phi, z**2) per code, shape (len(codes), 3).

    z is the code's first uniform and phi is pi/2 times its second. Codes
    go in blocks so the temporaries stay in cache; every value is
    elementwise, so the block size changes no bit.
    """
    k = mix64(np.uint64((int(key) + salt * int(_GOLD)) & _U64_MASK))
    out = np.empty((codes.shape[0], 3))
    for lo in range(0, codes.shape[0], _RNG_BLOCK):
        base = mix64(codes[lo : lo + _RNG_BLOCK] + k) + _GOLD
        zz = _unit_open(mix64(base)) ** 2
        phi = (0.5 * np.pi) * _unit_open(mix64(base + _GOLD))
        rest = 1.0 - zz
        c, s = np.cos(phi), np.sin(phi)
        out[lo : lo + _RNG_BLOCK] = np.stack((rest * (c * c), rest * (s * s), zz), axis=1)
    return out


def dirichlet_half_triples(key: np.uint64, codes: np.ndarray) -> np.ndarray:
    """Exact Dirichlet(1/2,1/2,1/2) triples keyed per address code.

    If (x, y, z) is uniform on the sphere, then (x**2, y**2, z**2) is
    Dirichlet(1/2,1/2,1/2), and by Archimedes' theorem z is uniform on
    (-1, 1) and independent of the azimuth phi (Marsaglia 1972). Only |z|
    and phi modulo pi/2 enter the squares, so each triple takes two
    uniforms, a fixed count per draw as a counter-based stream requires.
    Degenerate draws (a component that is not positive) are redrawn with a
    bumped salt; every component lies in [0, 1] by construction, and a NaN
    would fail the same test.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    out = _archimedes(key, codes, 0)
    salt = 1
    while not (out > 0.0).all():  # pragma: no cover - probability ~ 2**-53 per triple
        bad = ~(out > 0.0).all(axis=1)
        out[bad] = _archimedes(key, codes[bad], salt)
        salt += 1
    return out


def rayleigh_perturbations(key: np.uint64, codes: np.ndarray) -> np.ndarray:
    """Exact resistance perturbations keyed per address code: R = sqrt(-(4/pi) ln u).

    R is the fixed point of R = w1 R1 + w2 R2 with Dirichlet(1/2,1/2,1/2)
    weights w = sqrt(mass). R/H (H = sqrt(8/pi)) is the height of a
    mass-uniform point of the continuum random tree coded by the standard
    excursion: that height is Rayleigh (Aldous 1991) and splits by the same
    Dirichlet masses (Aldous 1994). So P(R <= r) = 1 - exp(-pi r**2 / 4),
    and E R**k = 1, 4/pi, 6/pi, 32/pi**2 for k = 1..4. u lies strictly
    inside (0, 1), so every R is finite and positive. Codes go in blocks,
    as in the triple sampler, and change no bit.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    out = np.empty(codes.shape[0])
    for lo in range(0, codes.shape[0], _RNG_BLOCK):
        out[lo : lo + _RNG_BLOCK] = _rayleigh(mix64(mix64(codes[lo : lo + _RNG_BLOCK] + key)))
    return out


def _rayleigh(bits: np.ndarray) -> np.ndarray:
    # the uniform takes the top 52 bits, strictly inside (0, 1): the extreme
    # bit patterns give 2**-53 and 1 - 2**-53, both exact in float64
    u = ((bits >> np.uint64(12)).astype(np.float64) + 0.5) * (2.0 ** -52)
    return np.sqrt((-4.0 / np.pi) * np.log(u))


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
#
# A sweep counts a block of shifts at once. acc and g are shift-major
# (block width x vertices) and (block width x slots) arrays, so each round's
# twenty-odd numpy calls serve the whole block, not one shift; on pencils of
# a few thousand vertices that per-call overhead is most of the cost. The
# width is the number of acc and g rows that fit a 1 MiB budget, and a deep
# dendrite, whose one row already exceeds the budget, sweeps one shift at a
# time. The scratch rows are allocated once per call and written with
# ``out=``, so blocks reuse them; the schedule, which replica threads share,
# is never written. Every pivot is the same elementwise
# expression, in the same order, as in a one-shift sweep, so every count,
# eta and pivot is bit-identical whatever the block width or tile.
#
# Column tiles and fused rounds. Where a round's rake targets are its
# compressed vertices in the same order and no vertex is both an a and a b
# target (``fused``, every dendrite round), its stages run in tiles of
# budget // (32 x width) columns, so a tile's four scratch rows fill the
# budget and its operands stay in L2 from one pass to the next (a depth-12
# first round would stream 1.4 MB per pass). Tile j's rakes run just before
# its compresses, and each leaf's term y feeds its midpoint directly, h =
# (acc + y) - lambda m; nothing is written to acc for a vertex that the
# round eliminates. Every other round runs each stage whole, rakes first,
# and so does every round when no tile of one column fits the budget.
#
# The first round. acc is zero there and every slot is an edge slot, so the
# round reads the conductances themselves: a rake's h is (-lambda) m, exact
# since 0 - x = -x, and a fused midpoint's h is y - lambda m. Its compresses
# form p = (ga + gb) + h and the fill ga gb / p as every other round's do. A
# block zeroes only acc[:, :acc_live], the vertices that it reads (on the
# dendrite, those left after the first round), and only the edge slots
# that later rounds read are copied into g (on the dendrite, none); the
# pages of the rest are never touched.
#
# Count, then guard. A stage counts p <= 0 first, and only when it counted
# something does it look for exact zeros and replace them by -_ZERO_PIVOT,
# which keeps the division defined; a zero already counts as nonpositive,
# so the count is the same.
#
# Scatter plans. Rakes and compresses move their terms into acc in one
# form. A non-fused round's rakes send one term to each target; a compress
# round scatters its a terms, then its b terms, and a vertex may receive
# several. The schedule cuts each sequence into consecutive ranges, its
# scatter plan: a range of at least _MIN_VIEW terms whose targets step
# evenly upward is added as one view add onto acc[:, targets], which gives
# each target one term; every other range goes through np.add.at, in index
# order, on acc's flat view at row * V + vertex. On the dendrite's
# child-major numbering almost every compress term falls in a view range
# (depth 12, round 0: all but 1,458 of 354,294). A tile clips the plan's
# ranges to its own terms when the sweep's steps are laid out, so the plan
# is the same for every tile width. Each tile of a fused round applies its
# a terms and then its b terms, and no vertex takes both, so each vertex
# receives its terms in the one-shift order; a whole stage applies them in
# that order anyway.
# ---------------------------------------------------------------------------

# The shortest run of evenly stepping targets that becomes a view range.
# Cutting a run out of an np.add.at range costs up to two more calls, a few
# microseconds, and saves a few nanoseconds per term, so short runs stay
# in np.add.at; 64, 512 and 4096 sweep a depth-12 network equally fast.
_MIN_VIEW = 512


@dataclass(frozen=True)
class ContractionSchedule:
    """Rounds ``(leaf, rake, leaf_slot, mid, slot_a, slot_b, fill, scatter, fused)``.

    Raked leaves with the scatter plan of their targets and their edge
    slots, then compressed vertices with their edge slots (``slot_a`` the
    lower); the i-th fill edge of a round takes slot ``fill + i``. A scatter
    plan is a tuple of ranges ``(lo, hi, targets)`` that cut a sequence of
    terms into consecutive pieces, so that concatenating the targets gives
    the sequence's targets. ``rake`` covers the round's raked leaves, one
    term each; ``scatter`` covers the 2 k terms of its k compressed
    vertices (the neighbours a through the lower slot, then the neighbours
    b), no range across a and b. ``fused``: the rake targets are the
    compressed vertices, in the same order, and no vertex is both an a and
    a b target; it holds on every dendrite round. The other index
    sets are int64 arrays from the generic builder and step-1 slices from
    the dendrite, whose numbering makes every vertex and slot set of a
    round a run of consecutive ids, so the kernel reads views and the
    schedule stays as small as the level graph. A sweep zeroes acc columns
    ``[0, acc_live)``, every vertex whose acc it reads, and copies into g
    the edge slots ``[0, g_live)``, every one a round after the first
    reads; on the dendrite, the vertices left after the first round and no
    slot.
    """

    rounds: tuple[tuple, ...]
    n_vertices: int
    n_slots: int
    final: int  # the slot joining b0 and b1
    b0: int
    b1: int
    acc_live: int
    g_live: int

    @property
    def block_width(self) -> int:
        """Shifts per counting pass: the acc and g columns that fit the block budget, at least 1."""
        return max(1, _SHIFT_BLOCK_BYTES // (8 * (self.n_vertices + self.n_slots)))


def _scatter_plan(a: np.ndarray, b: np.ndarray) -> tuple[tuple, ...]:
    """Ranges (lo, hi, targets) over the terms a then b, in order; see ContractionSchedule."""
    return tuple(_scatter_ranges(a, 0) + _scatter_ranges(b, a.shape[0]))


def _scatter_ranges(t: np.ndarray, offset: int) -> list[tuple]:
    # (lo, hi, targets) over t's terms, positions offset by ``offset``: runs
    # of at least _MIN_VIEW targets in an upward arithmetic progression as
    # slices, the pieces between them as index arrays
    n, pos, out = t.shape[0], 0, []
    if n >= _MIN_VIEW:
        d = np.diff(t)
        cut = np.flatnonzero(d[1:] != d[:-1]) + 1
        starts, ends = np.append(0, cut), np.append(cut, n - 1)  # equal steps d[s:e] join targets s..e
        long = (ends - starts >= _MIN_VIEW - 1) & (d[starts] > 0)
        for s, e in zip(starts[long].tolist(), ends[long].tolist()):
            s = max(s, pos)  # a run shares its first target with the one before
            if e + 1 - s < _MIN_VIEW:
                continue
            if s > pos:
                out.append((offset + pos, offset + s, t[pos:s].copy()))
            out.append((offset + s, offset + e + 1, slice(int(t[s]), int(t[e]) + 1, int(d[s]))))
            pos = e + 1
    if pos < n:
        out.append((offset + pos, offset + n, t[pos:].copy()))
    return out


def _sub(idx, lo: int, hi: int):
    # members lo..hi of an index set, a slice kept a slice
    if isinstance(idx, slice):
        return slice(idx.start + lo * idx.step, idx.start + hi * idx.step, idx.step)
    return idx[lo:hi]


def _ends(lu: np.ndarray, lv: np.ndarray, ls: np.ndarray, cand: np.ndarray):
    # (vertex, neighbour, slot) for each end of a live edge at a candidate vertex
    cu, cv = cand[lu], cand[lv]
    return np.concatenate((lu[cu], lv[cv])), np.concatenate((lv[cu], lu[cv])), np.concatenate((ls[cu], ls[cv]))


def schedule_round(parts: tuple, target: np.ndarray, fill: int, a: np.ndarray, b: np.ndarray, fused: bool) -> tuple:
    """A ContractionSchedule round from its index sets, rake targets, first fill slot and compress neighbours.

    ``parts`` holds ``(leaf, leaf_slot, mid, slot_a, slot_b)``; the rake
    and compress scatter plans are built from ``target`` and from a, b.
    """
    rake = tuple(_scatter_ranges(target.astype(np.int64, copy=False), 0))
    scatter = _scatter_plan(a.astype(np.int64, copy=False), b.astype(np.int64, copy=False))
    return (parts[0], rake, *parts[1:], fill, scatter, fused)


def contraction_schedule(edge_u, edge_v, n_vertices: int, b0: int, b1: int) -> ContractionSchedule:
    """Rake/compress rounds that eliminate every vertex of a tree but b0 and b1.

    Raises ValueError unless the edges form a tree on the vertex ids. With
    V - 1 edges, a round that removes nothing means a cycle beside a second
    part; a run that ends on one b0-b1 edge replays backwards (add a pendant
    leaf, subdivide an edge) into the input, so the input is a tree.
    """
    nv, edge_u, edge_v = int(n_vertices), np.asarray(edge_u), np.asarray(edge_v)
    if edge_u.shape != edge_v.shape or ((edge_u < 0) | (edge_u >= nv) | (edge_v < 0) | (edge_v >= nv)).any():
        raise ValueError("pencil edge endpoints must be vertex ids")
    ne = edge_u.shape[0]
    if ne != nv - 1:
        raise ValueError("pencil graph is not a tree" if ne > nv - 1 else "pencil graph is not connected")
    # int32 halves the build's transient memory; the schedule keeps int64
    lu, lv = edge_u.astype(np.int32), edge_v.astype(np.int32)
    inner = np.isin(np.arange(nv), (b0, b1), invert=True)
    deg = np.bincount(lu, minlength=nv) + np.bincount(lv, minlength=nv)  # kept for live vertices only
    dead = np.zeros(ne + nv, dtype=bool)
    ls = np.arange(ne, dtype=np.int32)  # live edges: endpoints lu, lv and slot ls; fills append slots
    n_slots, rounds, acc_live, g_live = ne, [], nv, 0
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
        if leaf.shape[0] == 0 and mid.shape[0] == 0:
            raise ValueError("pencil graph is not connected")
        dead[slot_a] = dead[slot_b] = True
        keep = ~dead[ls]
        fill = np.arange(n_slots, n_slots + mid.shape[0], dtype=np.int32)
        lu, lv, ls = np.concatenate((lu[keep], a)), np.concatenate((lv[keep], b)), np.concatenate((ls[keep], fill))
        parts = tuple(x.astype(np.int64) for x in (leaf, leaf_slot, mid, slot_a, slot_b))
        # cand is spent: it is reused as a vertex mask, so the build's peak memory stays put
        fused = np.array_equal(target, mid)
        if fused:  # and no vertex is both an a and a b target
            cand[:] = False
            cand[a] = True
            fused = not cand[b].any()
        rounds.append(schedule_round(parts, target, n_slots, a, b, fused))
        if len(rounds) == 1:
            # the first round reads no acc of its leaves, nor of its midpoints when fused
            cand[:] = True
            cand[leaf] = False
            cand[mid] = not fused
            acc_live = int(np.flatnonzero(cand)[-1]) + 1
        else:
            read = np.concatenate((leaf_slot, slot_a, slot_b))
            read = read[read < ne]
            if read.shape[0]:
                g_live = max(g_live, int(read.max()) + 1)
        n_slots += mid.shape[0]
    if ls.shape[0] != 1 or {int(lu[0]), int(lv[0])} != {b0, b1}:
        raise ValueError("pencil graph is not connected")
    final = int(ls[0])
    g_live = max(g_live, final + 1 if final < ne else 0)
    return ContractionSchedule(tuple(rounds), nv, n_slots, final, int(b0), int(b1), acc_live, g_live)


def _cols(x: np.ndarray, idx, buf, k: int, n: int):
    """A reader of x[:, idx]: the view itself for a slice, else a gather into buf(k, n)."""
    if isinstance(idx, slice):
        view = x[:, idx]
        return lambda: view
    return functools.partial(x.take, idx, 1, buf(k, n), "clip")


def _flat_index(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # the entries x[:, idx], row by row, as indices of x's flat view
    width, nv = x.shape
    return idx if width == 1 else (np.arange(width)[:, None] * nv + idx).reshape(-1)


def _scatter_adds(acc: np.ndarray, plan, y: np.ndarray, lo: int) -> list[tuple]:
    """The adds that apply y's terms by a scatter plan, y's column i being term lo + i.

    Each plan range is clipped to y's window [lo, lo + k), k its column
    count, so a tile cuts the ranges at its edges; the plan is in term
    order, so the ranges before the window are skipped and the first one
    past it ends the walk. Each piece becomes (acc view, y part, None) for a view add, or (None,
    y part, flat index) for np.add.at on acc's flat view at row * V + vertex.
    """
    hi, out = lo + y.shape[1], []
    for start, stop, tgt in plan:
        if start >= hi:
            break
        if stop > lo:
            s, e = max(start, lo), min(stop, hi)
            part, tgt = y[:, s - lo : e - lo], _sub(tgt, s - start, e - start)
            out.append((acc[:, tgt], part, None) if isinstance(tgt, slice) else (None, part, _flat_index(acc, tgt)))
    return out


def _scatter(flat: np.ndarray, adds) -> None:
    # the adds of _scatter_adds, in order: a view add, or np.add.at on acc's flat view
    for view, part, at in adds:
        if at is None:
            np.add(view, part, out=view)
        else:
            np.add.at(flat, at, part.reshape(-1))


def _nonpositive(p: np.ndarray, z: np.ndarray):
    # per-row count of p <= 0, one row without the slower axis reduction; then
    # exact zeros, already counted, become -_ZERO_PIVOT, looked for only if
    # something counted
    np.less_equal(p, 0.0, out=z)
    if z.shape[0] == 1:
        count = np.count_nonzero(z)
        hit = count > 0
    else:
        count = np.count_nonzero(z, axis=1)
        hit = count.any()
    if hit:
        np.copyto(p, -_ZERO_PIVOT, where=np.equal(p, 0.0, out=z))
    return count


def inertia_counts(
    sched: ContractionSchedule, mass: np.ndarray, conduct: np.ndarray, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann, final-round) counts <= lambda, and the last interior pivot, per grid value.

    The third array counts the nonpositive pivots of the schedule's last
    round alone; on a dendrite level graph that round pivots the level-1
    midpoint and tip, so it is the branching increment eta. The fourth
    holds the pivot of the last interior vertex eliminated (the final
    round's last compression, or its last rake if it compresses none; the
    level-1 midpoint on a dendrite). Every other interior vertex is
    eliminated before it or beside it in the same independent stage, so
    while no other pivot is zero that pivot is the Schur complement
    1 / [(L_D - lambda M_D)**-1]_vv, the ratio det(L_D - lambda M_D) /
    det(the same with v deleted). It is NaN for shifts <= 0, which are not
    swept, and on a schedule without rounds. The positive shifts are swept
    in equal blocks of at most ``sched.block_width``, the last one padded
    with copies of its final shift; the stages of a fused round run in
    column tiles, every other stage whole. The section comment above
    says how, and why every output is bit-identical to a one-shift sweep.
    """
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    nv, b0, b1 = mass.shape[0], sched.b0, sched.b1
    out_d = np.zeros(lams.shape[0], dtype=np.int64)
    out_n = np.zeros(lams.shape[0], dtype=np.int64)
    out_last = np.zeros(lams.shape[0], dtype=np.int64)
    out_pivot = np.full(lams.shape[0], np.nan)
    out_n[lams == 0.0] = 1  # constant eigenfunction on a connected tree
    todo = np.flatnonzero(~(lams <= 0.0))
    if todo.shape[0] == 0:
        return out_d, out_n, out_last, out_pivot
    n_blocks = -(-todo.shape[0] // sched.block_width)
    width = -(-todo.shape[0] // n_blocks)
    todo = np.append(todo, np.full(n_blocks * width - todo.shape[0], todo[-1]))

    # once per call: the rounds' masses and the steps of every round, tile
    # by tile, over views of acc, g and the scratch rows that every block reuses
    cols = _SHIFT_BLOCK_BYTES // (32 * width) or nv  # no column fits: stages stay whole
    masses = [(mass[r[0]], mass[r[3]]) for r in sched.rounds]
    tiles = [cols if r[8] else nv for r in sched.rounds]  # a non-fused round's stages stay whole
    widest = max([1] + [min(t, m.shape[0]) for t, pair in zip(tiles, masses) for m in pair])
    acc = np.empty((width, nv))
    g = np.empty((width, sched.n_slots))
    g[:, : sched.g_live] = conduct[: sched.g_live]  # the edge slots later rounds read; none is written
    flat = acc.reshape(-1)
    scratch: dict[int, np.ndarray] = {}
    views: dict[tuple[int, int], np.ndarray] = {}

    def buf(k: int, n: int) -> np.ndarray:
        # scratch row k (the bool mask for k = -1) as a (width, n) array; a
        # row is allocated on first use, apart from the others, so a deep
        # dendrite, whose gathers are all views, takes three float rows
        if (k, n) not in views:
            if k not in scratch:
                scratch[k] = np.empty(width * widest, dtype=bool if k < 0 else np.float64)
            views[k, n] = scratch[k][: width * n].reshape(width, n)
        return views[k, n]

    plan, last_pivots = [], None
    for i, (rnd, (m_leaf, m_mid), tile) in enumerate(zip(sched.rounds, masses, tiles)):
        leaf, rake, leaf_slot, mid, slot_a, slot_b, fill, scatter, fused = rnd
        rakes, compresses = [], []
        if i == 0:  # every slot is an edge slot, and acc is zero
            c0, ga0, gb0 = conduct[leaf_slot], conduct[slot_a], conduct[slot_b]
        n = m_leaf.shape[0]
        for lo in range(0, n, tile):
            k = min(tile, n - lo)
            c = (lambda c=c0[lo : lo + k]: c) if i == 0 else _cols(g, _sub(leaf_slot, lo, lo + k), buf, 0, k)
            acc_leaf = None if i == 0 else _cols(acc, _sub(leaf, lo, lo + k), buf, 1, k)
            h, p = buf(2, k), buf(3, k)
            to_target = [] if fused else _scatter_adds(acc, rake, h, lo)
            rakes.append((c, acc_leaf, m_leaf[lo : lo + k], h, p, buf(-1, k), to_target))
        n = m_mid.shape[0]
        for lo in range(0, n, tile):
            k = min(tile, n - lo)
            part = slice(lo, lo + k)
            if i == 0:
                ga, gb = (lambda x=ga0[part]: x), (lambda x=gb0[part]: x)
            else:
                ga, gb = _cols(g, _sub(slot_a, lo, lo + k), buf, 0, k), _cols(g, _sub(slot_b, lo, lo + k), buf, 1, k)
            acc_mid = None if fused and i == 0 else _cols(acc, _sub(mid, lo, lo + k), buf, 4, k)
            h, p, y = buf(2, k), buf(3, k), buf(4, k)
            to_a, to_b = _scatter_adds(acc, scatter, y, lo), _scatter_adds(acc, scatter, y, n + lo)
            compresses.append((ga, gb, acc_mid, fused, m_mid[part], h, p, y, buf(-1, k), to_a, to_b,
                               g[:, fill + lo : fill + lo + k]))
        if fused:  # rake tile j, then compress tile j
            steps = [s for pair in zip(rakes, compresses) for s in ((True, pair[0]), (False, pair[1]))]
        else:
            steps = [(True, s) for s in rakes] + [(False, s) for s in compresses]
        plan.append(steps)
        if steps:  # the last step's pivot row, which after a block holds the final round's last
            last_pivots = p

    for start in range(0, todo.shape[0], width):
        sel = todo[start : start + width]
        lam_eff = lams[sel] * (1.0 + NUDGE)
        lam_col, neg_col = lam_eff[:, None], -lam_eff[:, None]
        acc[:, : sched.acc_live].fill(0.0)
        interior = np.zeros(width, dtype=np.int64)
        last = 0
        for steps in plan:
            last = 0
            for rake, step in steps:
                if rake:
                    # h = acc - lambda m, p = c + h, and y = c h / p onto the
                    # target or, fused, into the midpoint's step
                    c, acc_leaf, m, h, p, z, to_target = step
                    c = c()
                    if acc_leaf is None:  # acc is zero, and 0 - x is -x
                        np.multiply(neg_col, m, out=h)
                    else:
                        np.multiply(lam_col, m, out=h)
                        np.subtract(acc_leaf(), h, out=h)
                    np.add(c, h, out=p)
                    last += _nonpositive(p, z)
                    np.multiply(c, h, out=h)
                    np.divide(h, p, out=h)
                    _scatter(flat, to_target)
                    continue
                # compress: p = (ga + gb) + h, g h / p onto a and b, and ga gb / p fills
                ga, gb, acc_mid, fused, m, h, p, y, z, to_a, to_b, g_fill = step
                ga, gb = ga(), gb()
                if fused:  # h = (acc + y) - lambda m, y the raked term in h's row
                    if acc_mid is not None:
                        np.add(acc_mid(), h, out=h)
                    np.multiply(lam_col, m, out=p)
                    np.subtract(h, p, out=h)
                else:
                    np.multiply(lam_col, m, out=h)
                    np.subtract(acc_mid(), h, out=h)
                np.add(ga, gb, out=p)
                np.add(p, h, out=p)
                last += _nonpositive(p, z)
                np.multiply(ga, h, out=y)
                np.divide(y, p, out=y)
                _scatter(flat, to_a)
                np.multiply(gb, h, out=y)
                np.divide(y, p, out=y)
                _scatter(flat, to_b)
                np.multiply(ga, gb, out=y)
                np.divide(y, p, out=g_fill)
            interior += last
        gf = g[:, sched.final]
        h0 = acc[:, b0] - lam_eff * mass[b0]
        p0 = gf + h0
        p0[p0 == 0.0] = -_ZERO_PIVOT
        p1 = acc[:, b1] - lam_eff * mass[b1] + gf * h0 / p0
        p1[p1 == 0.0] = -_ZERO_PIVOT
        out_d[sel] = interior
        out_n[sel] = interior + (p0 <= 0.0).astype(np.int64) + (p1 <= 0.0).astype(np.int64)
        out_last[sel] = last
        if last_pivots is not None:
            out_pivot[sel] = last_pivots[:, -1]
    return out_d, out_n, out_last, out_pivot


# ---------------------------------------------------------------------------
# Nearest-vertex projection of excursion grid times onto a spanned subtree.
#
# The vertices' grid times cut the path into gaps. A grid time i in the gap
# between time-adjacent vertices L and R hangs off the subtree at depth
# h = max(min f[L..i], min f[i..R]), on the root path of L when the left
# minimum wins (ties included) and of R otherwise; the end of the path,
# at height 0, closes the last gap at the root. The hang point lies on the
# edge from a, the highest ancestor of that vertex with depth >= h, to its
# parent, so one of the two is the nearest vertex. Per-gap running minima
# come from segmented doubling, about log2(longest gap) passes over the
# path, and vectorised binary lifting over a table of 2^j-th ancestors finds
# every a at once. With H the tree's height in edges (about sqrt(V) on
# excursion trees) and G the longest gap, that takes O(n log G + V log H)
# time in log2(G) + log2(H) numpy passes, and O(n + V log H) memory: no
# O(n log n) range-minimum table.
# ---------------------------------------------------------------------------


def _gap_minima(values: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running minima of ``values`` within each gap [lo[g], lo[g + 1]].

    ``lo`` increases from 0, and the last gap ends at the end of the path.
    Forward minima start at the gap's left end, backward minima at its
    right end; a gap's right end belongs to the next gap, which overwrites
    it. So position i of gap g gets min values[lo[g]..i] and
    min values[i..lo[g + 1]].

    Segmented doubling: after the pass of stride d each position holds the
    minimum over up to 2d positions of its own gap, so ceil(log2(longest
    gap)) passes finish. ``min`` is exact, so both arrays equal a per-gap
    scan bit for bit.
    """
    n = values.shape[0]
    itype = np.int32 if n < 2**31 else np.int64
    lens = np.diff(np.append(lo, n)).astype(itype)
    off = np.arange(n, dtype=itype)  # position within the gap
    off -= np.repeat(lo.astype(itype), lens)
    pre = values.copy()
    suf = values.copy()
    last = lo[1:] - 1  # seeding a gap's last position with its right end covers every backward minimum
    suf[last] = np.minimum(values[last], values[lo[1:]])
    buf = np.empty_like(values)
    ok = np.empty(n, dtype=bool)
    span, d = int(lens.max()), 1
    while d < span:
        np.greater_equal(off[d:], d, out=ok[d:])  # i - d lies in i's gap
        buf[d:] = pre[:-d]
        np.minimum(pre[d:], buf[d:], out=pre[d:], where=ok[d:])
        d *= 2
    np.subtract(np.repeat(lens - 1, lens), off, out=off)  # positions left in the gap
    d = 1
    while d < span:
        np.greater_equal(off[:-d], d, out=ok[:-d])  # i + d lies in i's gap
        buf[:-d] = suf[d:]
        np.minimum(suf[:-d], buf[:-d], out=suf[:-d], where=ok[:-d])
        d *= 2
    return pre, suf


def nearest_vertex(
    values: np.ndarray, vert_idx: np.ndarray, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(owner index, distance) of the d_f-nearest tree vertex per grid time.

    ``vert_idx`` holds the grid time of each tree vertex, distinct times,
    and ``parent`` links the vertices into the tree they span, rooted at
    the vertex of grid time 0 (parent -1). A vertex's depth is
    ``values[vert_idx]``. Distances are ``values + values[tv] - 2.0 * m``
    with m the path minimum between the grid time and the vertex's time,
    as a scan over every vertex would compute them; ties go to the lowest
    vertex number. The section comment above gives the algorithm and its
    cost.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    vert_idx = np.ascontiguousarray(vert_idx, dtype=np.int64)
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    nv = vert_idx.shape[0]
    depth = values[vert_idx]
    root = int(np.argmin(parent))
    order = np.argsort(vert_idx, kind="stable")
    lo = vert_idx[order]
    if lo[0] != 0 or parent[root] != -1 or vert_idx[root] != 0:
        raise ValueError("the tree must be rooted at the vertex of grid time 0")
    pre, suf = _gap_minima(values, lo)
    gap = np.repeat(np.arange(nv), np.diff(np.append(lo, values.shape[0])))
    left = pre >= suf
    h = np.where(left, pre, suf)
    del pre, suf
    a = np.where(left, order[gap], np.append(order[1:], root)[gap])
    del left, gap

    # ancestor table up[j][v] = 2**j-th ancestor, the root its own parent;
    # it stops growing once one level maps every vertex to the root
    up = [np.where(parent < 0, root, parent)]
    while (up[-1] != root).any():
        up.append(up[-1][up[-1]])
    for step in reversed(up):
        cand = step[a]
        a = np.where(depth[cand] >= h, cand, a)

    pa = parent[a]
    at_root = pa < 0
    pa[at_root] = root
    d_a = values + values[vert_idx[a]] - 2.0 * h
    d_p = values + values[vert_idx[pa]] - 2.0 * depth[pa]
    d_p[at_root] = np.inf
    owner = np.where(d_p < d_a, pa, np.where(d_a < d_p, a, np.minimum(a, pa)))
    return owner, np.minimum(d_a, d_p)
