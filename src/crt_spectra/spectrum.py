"""Eigenvalue counting for L f = lambda M f on resistance networks.

The fast path counts by Sylvester inertia: vertices are pivoted leaf-first
along the tree, which factors L - lambda M with zero fill in O(V); the
number of nonpositive pivots equals the number of eigenvalues <= lambda.
The shift is nudged to lambda (1 + 1e-12) so exact jump points resolve
deterministically, and lambda = 0 is special-cased (the Laplacian of a
connected tree has a simple kernel). A dense solver on the mass-normalized
matrix serves as the independent oracle for small problems.

Dirichlet counts delete the two boundary rows and columns; on the dendrite
both counts come from one elimination because the boundary corners are
pivoted last. A general tree pencil builds its elimination order once, on
first use, and shares it with its Neumann/Dirichlet twin; the order depends
only on the edges and the root, never on the shift or the boundary kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from ._kernels import counts_dendrite, counts_tree
from .cascade import HEIGHT_CONSTANT
from .dendrite import structure
from .errors import CapacityError, TruncationError
from .excursion import MetricTree
from .forms import ResistanceNetwork, cell_block, subnetwork_fresh

_NUDGE = 1e-12

GAMMA_EXPONENT = 2.0 / 3.0  # lambda**(-2/3) is the normalized counting scale


# ---------------------------------------------------------------------------
# Pencils
# ---------------------------------------------------------------------------


@dataclass
class Pencil:
    """Stiffness/mass pencil of a finite tree network.

    ``edges`` are (u, v, conductance) arrays; ``mass`` is the diagonal mass
    vector; ``boundary`` names the two distinguished vertices. ``kind`` is
    "neumann" (free) or "dirichlet" (boundary rows/columns deleted).
    """

    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_c: np.ndarray
    mass: np.ndarray
    boundary: tuple[int, int]
    kind: str = "neumann"

    def __post_init__(self):
        if self.kind not in ("neumann", "dirichlet"):
            raise ValueError("kind must be 'neumann' or 'dirichlet'")
        if (self.mass <= 0).any():
            raise ValueError("mass diagonal must be positive")

    @property
    def n_vertices(self) -> int:
        return self.mass.shape[0]

    @property
    def n_eigenvalues(self) -> int:
        return self.n_vertices - (2 if self.kind == "dirichlet" else 0)

    @classmethod
    def from_network(cls, net: ResistanceNetwork, kind: str = "neumann") -> "Pencil":
        e0, e1 = net.structure.ep0_levels[net.level], net.structure.ep1_levels[net.level]
        return cls(e0.copy(), e1.copy(), net.conductance.copy(), net.vertex_mass.copy(), net.boundary, kind)

    @classmethod
    def from_tree(cls, tree: MetricTree, kind: str = "neumann", boundary: tuple[int, int] | None = None) -> "Pencil":
        nonroot = np.array([v for v in range(tree.n_vertices) if v != tree.root], dtype=np.int64)
        eu = tree.parent[nonroot]
        ec = 1.0 / tree.edge_len[nonroot]
        if boundary is None:
            # the tree root and the first inserted leaf (a mu-random vertex)
            boundary = (tree.root, 1 if tree.n_vertices > 1 else tree.root)
        return cls(eu.astype(np.int64), nonroot, ec, np.maximum(tree.mass, 1e-300), boundary, kind)

    def with_kind(self, kind: str) -> "Pencil":
        twin = Pencil(self.edge_u, self.edge_v, self.edge_c, self.mass, self.boundary, kind)
        if "tree_order" in self.__dict__:
            twin.tree_order = self.tree_order
        return twin

    @cached_property
    def tree_order(self) -> "_TreeOrder":
        """Leaf-first elimination order, built on first use."""
        return _TreeOrder(self)


def dense_matrices(pencil: Pencil) -> tuple[np.ndarray, np.ndarray]:
    """Dense stiffness matrix and mass diagonal (Dirichlet rows deleted)."""
    nv = pencil.n_vertices
    if nv > 4096:
        raise CapacityError("dense path limited to 4096 vertices")
    stiff = np.zeros((nv, nv))
    for u, v, c in zip(pencil.edge_u, pencil.edge_v, pencil.edge_c):
        stiff[u, u] += c
        stiff[v, v] += c
        stiff[u, v] -= c
        stiff[v, u] -= c
    mass = pencil.mass.copy()
    if pencil.kind == "dirichlet":
        keep = np.array([v for v in range(nv) if v not in pencil.boundary])
        stiff = stiff[np.ix_(keep, keep)]
        mass = mass[keep]
    return stiff, mass


def dense_eigenvalues(pencil: Pencil) -> np.ndarray:
    """All eigenvalues via the dense symmetric solver (test oracle path)."""
    stiff, mass = dense_matrices(pencil)
    if stiff.shape[0] == 0:
        return np.zeros(0)
    s = 1.0 / np.sqrt(mass)
    sym = stiff * s[:, None] * s[None, :]
    return np.linalg.eigvalsh(sym)


def dense_count_below(pencil: Pencil, lam: float) -> int:
    eigs = dense_eigenvalues(pencil)
    return int((eigs <= lam * (1.0 + _NUDGE)).sum())


# -- fast inertia path -------------------------------------------------------


class _TreeOrder:
    """Leaf-first elimination order of a pencil's tree, rooted at boundary[0].

    Vertices are sorted by hop depth, deepest first; inside one depth wave
    the children of each parent come in ascending order of their edge index,
    which fixes the order in which the kernel sums a parent's accumulator.
    """

    def __init__(self, pencil: Pencil):
        nv = pencil.n_vertices
        root = pencil.boundary[0]
        eu, ev = pencil.edge_u, pencil.edge_v
        nedge = eu.shape[0]
        adj = coo_matrix((np.ones(nedge), (eu, ev)), shape=(nv, nv)).tocsr()
        hops = shortest_path(adj, method="D", directed=False, unweighted=True, indices=root)
        if not np.isfinite(hops).all():
            raise ValueError("pencil graph is not connected")
        if nedge != nv - 1:
            raise ValueError("pencil graph is not a tree")
        depth = hops.astype(np.int64)
        child = np.where(depth[ev] > depth[eu], ev, eu)
        parent = np.full(nv, -1, dtype=np.int64)
        parent[child] = np.where(child == ev, eu, ev)
        coup = np.zeros(nv)
        coup[child] = pencil.edge_c
        # child[k] hangs from edge k: a stable sort keeps edge order inside a wave
        order = child[np.argsort(-depth[child], kind="stable")]
        # wave boundaries: runs of equal depth in the (descending) order
        cuts = np.nonzero(np.diff(depth[order]))[0] + 1
        self.order = order
        self.wave_offs = np.concatenate(([0], cuts, [nedge])).astype(np.int64)
        self.parent = parent
        self.coup = coup
        self.root = root


def count_pair(pencil: Pencil, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann) counts at each lambda by tree inertia."""
    to = pencil.tree_order
    return counts_tree(pencil.mass, to.coup, to.parent, to.order, to.wave_offs, to.root, pencil.boundary[1], lams)


def count_below(pencil: Pencil, lam: float) -> int:
    """Number of pencil eigenvalues <= lambda, with multiplicity."""
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    nd, nn = count_pair(pencil, np.array([float(lam)]))
    return int(nd[0] if pencil.kind == "dirichlet" else nn[0])


# -- dendrite networks: specialized level-pass engine -------------------------


def block_counts(level: int, conduct: np.ndarray, cell_mass: np.ndarray, lams: np.ndarray):
    """Counts for a bare (conductance, cell-mass) block on the level graph."""
    st = structure(level)
    e0, e1 = st.ep0_levels[level], st.ep1_levels[level]
    nv = st.n_vertices
    half = 0.5 * cell_mass
    mass = np.bincount(e0, weights=half, minlength=nv) + np.bincount(e1, weights=half, minlength=nv)
    return counts_dendrite(mass, conduct, st.ep0_flat, st.ep1_flat, st.pass_offsets, level, lams)


def network_counts(net: ResistanceNetwork, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann) counting-function samples for a network."""
    st = net.structure
    return counts_dendrite(net.vertex_mass, net.conductance, st.ep0_flat, st.ep1_flat, st.pass_offsets, net.level, lams)


# ---------------------------------------------------------------------------
# Counting curves
# ---------------------------------------------------------------------------


@dataclass
class CountingCurve:
    """Counting-function samples N(lambda) on an increasing grid."""

    lambdas: np.ndarray
    counts: np.ndarray
    boundary: str  # "neumann" or "dirichlet"

    def __post_init__(self):
        if (np.diff(self.lambdas) <= 0).any():
            raise ValueError("lambda grid must be strictly increasing")
        if (np.diff(self.counts) < 0).any():
            raise ValueError("counts must be nondecreasing")

    def to_csv(self) -> str:
        lines = ["lambda,count,boundary"]
        for lam, c in zip(self.lambdas, self.counts):
            lines.append(f"{lam:.17g},{int(c)},{self.boundary}")
        return "\n".join(lines) + "\n"


def network_curves(net: ResistanceNetwork, lams: np.ndarray) -> tuple[CountingCurve, CountingCurve]:
    nd, nn = network_counts(net, lams)
    lams = np.asarray(lams, dtype=np.float64)
    return CountingCurve(lams, nd, "dirichlet"), CountingCurve(lams, nn, "neumann")


# ---------------------------------------------------------------------------
# Dirichlet floor and eigenvalue extraction by bisection
# ---------------------------------------------------------------------------


def _dirichlet_count_fn(obj):
    if isinstance(obj, ResistanceNetwork):
        return lambda lam: int(network_counts(obj, np.array([lam]))[0][0]), obj.n_vertices - 2
    pencil = obj.with_kind("dirichlet") if obj.kind != "dirichlet" else obj
    return lambda lam: count_below(pencil, lam), pencil.n_eigenvalues


def dirichlet_floor(obj, diameter: float | None = None, rtol: float = 1e-12) -> float:
    """Smallest Dirichlet eigenvalue, by bisection on the counting function.

    A mass-one network bounds its first Dirichlet eigenvalue below by the
    inverse resistance diameter, so with a diameter supplied the bracket
    starts there (which also keeps the unpivoted elimination away from the
    cancellation-prone region far below the floor) and the bound is
    verified on the result.
    """
    count, n_eigs = _dirichlet_count_fn(obj)
    if n_eigs <= 0:
        raise ValueError("problem has no Dirichlet eigenvalues")
    if isinstance(obj, ResistanceNetwork) and diameter is None:
        from .forms import diameter as net_diameter

        diameter = net_diameter(obj)
    lo = 0.0 if diameter is None else (1.0 - 1e-9) / diameter
    hi = max(1.0, 2.0 * lo)
    while count(hi) < 1:
        hi *= 8.0
    if count(lo) >= 1:  # the bound can only fail through rounding; fall back
        lo = 0.0
    for _ in range(200):
        if hi - lo <= rtol * hi:
            break
        mid = 0.5 * (lo + hi)
        if count(mid) >= 1:
            hi = mid
        else:
            lo = mid
    if diameter is not None and hi * diameter < 1.0 - 1e-9:
        raise AssertionError(f"Dirichlet floor {hi} below 1/diameter {1.0 / diameter}")
    return hi


def eigenvalues_up_to(pencil: Pencil, lam_max: float, tol: float, cap: int = 200_000) -> np.ndarray:
    """All eigenvalues <= lam_max, each within +-tol, with multiplicities.

    Pure bisection on the exact counts: robust to clustering, no inverse
    iteration. Raises CapacityError when more than ``cap`` eigenvalues lie
    below lam_max.
    """
    if lam_max <= 0 or tol <= 0:
        raise ValueError("lam_max and tol must be positive")
    lo0 = -tol
    n_lo, n_hi = count_below(pencil, lo0), count_below(pencil, lam_max)
    if n_hi - n_lo > cap:
        raise CapacityError(f"{n_hi - n_lo} eigenvalues below {lam_max} exceed cap {cap}")
    out: list[tuple[float, int]] = []
    stack = [(lo0, lam_max, n_lo, n_hi)]
    while stack:
        lo, hi, clo, chi = stack.pop()
        if chi == clo:
            continue
        if hi - lo <= 2.0 * tol:
            out.append((0.5 * (lo + hi), chi - clo))
            continue
        mid = 0.5 * (lo + hi)
        cmid = count_below(pencil, mid)
        stack.append((lo, mid, clo, cmid))
        stack.append((mid, hi, cmid, chi))
    out.sort()
    return np.repeat([v for v, _ in out], [m for _, m in out])


# ---------------------------------------------------------------------------
# Heat traces
# ---------------------------------------------------------------------------


def heat_trace(
    eigs: np.ndarray,
    t: float,
    lam_max: float | None = None,
    n_above: int | None = None,
    max_remainder: float | None = None,
) -> tuple[float, float]:
    """(sum of exp(-lambda t), certified truncation remainder bound).

    The bound counts the ``n_above`` eigenvalues beyond ``lam_max`` at the
    cutoff weight exp(-lam_max t). Raises TruncationError when it exceeds
    ``max_remainder``.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    value = float(np.exp(-np.asarray(eigs) * t).sum())
    bound = 0.0
    if lam_max is not None and n_above:
        bound = float(n_above * np.exp(-lam_max * t))
    if max_remainder is not None and bound > max_remainder:
        raise TruncationError(f"remainder bound {bound} exceeds {max_remainder}")
    return value, bound


def trace_from_curve(lambdas: np.ndarray, counts: np.ndarray, t: float, n_total: int) -> tuple[float, float]:
    """Heat trace from counting samples, jumps placed at interval midpoints.

    Eigenvalues inside each grid cell sit at the geometric mean of the cell
    ends (log-placement error <= half the cell's log width); everything
    below the first grid point is weighted 1, everything above the last is
    bounded at the cutoff. Returns (value, error bound).
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    jumps = np.diff(counts)
    mids = np.sqrt(lambdas[:-1] * lambdas[1:])
    value = float(counts[0] + (jumps * np.exp(-mids * t)).sum())
    # in-cell placement error: |exp(-a t) - exp(-m t)| <= t (m - a) at worst
    cell_err = float((jumps * np.abs(np.exp(-lambdas[:-1] * t) - np.exp(-lambdas[1:] * t))).sum())
    low_err = float(counts[0] * (1.0 - np.exp(-lambdas[0] * t)))
    tail = float((n_total - counts[-1]) * np.exp(-lambdas[-1] * t))
    return value, cell_err + low_err + tail


# ---------------------------------------------------------------------------
# Self-similar decomposition: bracketing and the branching increment eta
# ---------------------------------------------------------------------------


@dataclass
class BracketReport:
    """The four counts of the decomposition chains at one lambda."""

    lam: float
    sub_dirichlet: int
    full_dirichlet: int
    full_neumann: int
    sub_neumann: int

    @property
    def chain_ok(self) -> bool:
        return self.sub_dirichlet <= self.full_dirichlet <= self.full_neumann <= self.sub_neumann

    @property
    def gap_ok(self) -> bool:
        return 0 <= self.full_neumann - self.full_dirichlet <= 2


def bracketing_check(net: ResistanceNetwork, lams: np.ndarray) -> list[BracketReport]:
    """Evaluate both decomposition chains at each lambda.

    Cell subproblems are assembled fresh from the shifted cascade and
    counted at lambda * w(j)**3, per the exact eigenvalue scaling of the
    renormalized cells.
    """
    lams = np.asarray(lams, dtype=np.float64)
    full_d, full_n = network_counts(net, lams)
    w1 = net.cascade.w_levels()[1]
    sub_d = np.zeros(lams.shape[0], dtype=np.int64)
    sub_n = np.zeros(lams.shape[0], dtype=np.int64)
    for j in (1, 2, 3):
        sub = subnetwork_fresh(net, j)
        w3 = float(w1[j - 1]) ** 3
        d, n = network_counts(sub, lams * w3)
        sub_d += d
        sub_n += n
    return [
        BracketReport(float(lams[i]), int(sub_d[i]), int(full_d[i]), int(full_n[i]), int(sub_n[i]))
        for i in range(lams.shape[0])
    ]


def eta_many(net: ResistanceNetwork, ts: np.ndarray, method: str = "embedded") -> np.ndarray:
    """eta(t) = N_D(e**t) - sum_j N_D,j(e**t w(j)**3), an integer in [0, 6].

    ``embedded`` counts the cell sub-blocks of the assembled pencil
    directly at e**t (bit-exact principal submatrices); ``fresh``
    re-assembles each cell from the shifted cascade and counts at the
    rescaled shift. The two agree except on a measure-zero set of shifts.
    """
    if net.level < 1:
        raise ValueError("eta needs at least one refinement level")
    ts = np.asarray(ts, dtype=np.float64)
    lams = np.exp(ts)
    full_d, _ = network_counts(net, lams)
    sub = np.zeros(ts.shape[0], dtype=np.int64)
    if method == "embedded":
        for j in (1, 2, 3):
            conduct, cmass = cell_block(net, j)
            d, _ = block_counts(net.level - 1, conduct, cmass, lams)
            sub += d
    elif method == "fresh":
        w1 = net.cascade.w_levels()[1]
        for j in (1, 2, 3):
            d, _ = network_counts(subnetwork_fresh(net, j), lams * float(w1[j - 1]) ** 3)
            sub += d
    else:
        raise ValueError("method must be 'embedded' or 'fresh'")
    return full_d - sub


def eta(net: ResistanceNetwork, t: float, method: str = "embedded") -> int:
    return int(eta_many(net, np.array([t]), method)[0])


def evolution_identity_gap(net: ResistanceNetwork, ts: np.ndarray) -> np.ndarray:
    """N_D(e**t) - [eta(t) + sum_j N_D,j(e**t w(j)**3)] with fresh subcounts.

    Zero everywhere the discrete evolution identity holds exactly (it can
    only fail on shifts that collide with an eigenvalue to rounding).
    """
    ts = np.asarray(ts, dtype=np.float64)
    lams = np.exp(ts)
    full_d, _ = network_counts(net, lams)
    rhs = eta_many(net, ts, method="embedded").astype(np.int64)
    w1 = net.cascade.w_levels()[1]
    for j in (1, 2, 3):
        d, _ = network_counts(subnetwork_fresh(net, j), lams * float(w1[j - 1]) ** 3)
        rhs += d
    return full_d - rhs


def telescoping_identity_gap(net: ResistanceNetwork, ts: np.ndarray, k_max: int) -> np.ndarray:
    """Check X(t) = sum_{|i|<k} eta_i(t + 3 ln l(i)) + level-k boundary sum.

    All per-address terms are computed on freshly assembled subnetworks at
    the rescaled shifts, independently of the embedded-block path used by
    :func:`eta_many`, so the telescoping is a real cross-check rather than
    array algebra. Returns the integer gaps (zero when the identity holds).
    """
    ts = np.asarray(ts, dtype=np.float64)
    full_d, _ = network_counts(net, np.exp(ts))
    acc = np.zeros(ts.shape[0], dtype=np.int64)

    def visit(sub: ResistanceNetwork, l_i: float, depth: int) -> None:
        nonlocal acc
        lams_i = np.exp(ts) * l_i**3
        if depth == k_max or sub.level == 0:
            d, _ = network_counts(sub, lams_i)
            acc += d
            return
        acc += eta_many(sub, ts + 3.0 * np.log(l_i), method="fresh")
        w1 = sub.cascade.w_levels()[1]
        for j in (1, 2, 3):
            visit(subnetwork_fresh(sub, j), l_i * float(w1[j - 1]), depth + 1)

    visit(net, 1.0, 0)
    return full_d - acc


def level0_neumann_eigenvalues(r_root: float) -> np.ndarray:
    """Closed-form level-0 Neumann spectrum: {0, 4 H / R}."""
    return np.array([0.0, 4.0 * HEIGHT_CONSTANT / r_root])
