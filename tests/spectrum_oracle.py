"""Spectral functions the tests check the package's counts and identities with.

The independent oracle for small problems is a dense Sylvester count,
``dense_count_pair``: M is diagonal and positive, so the number of
eigenvalues <= lambda is the number of nonpositive eigenvalues of the
dense, unscaled L - lambda M, which the symmetric solver resolves on the
scale of L. ``network_pencil`` is a dendrite network's pencil, bounded by
its corners, and ``dense_matrices`` its dense stiffness matrix and mass
diagonal; the dense path stops at 4096 vertices.
``dense_eigenvalues`` is the full dense spectrum of a small, well-scaled
pencil, checked at its bottom by a Sylvester count; ``eigenvalues_up_to``
extracts eigenvalues from the package's counts by bisection. The
heat-trace functions turn spectra and counting curves into
t**(2/3) tr P_t, which tends to Gamma(5/3) C0.
``eta_fresh`` counts eta on freshly assembled cells, the reference for the
package's one-sweep eta, and ``telescoping_identity_gap`` checks the
embedded telescoping identity with it. ``inertia_counts_per_shift`` sweeps
one shift at a time, the bit-for-bit reference for the package's
shift-blocked counting kernel and its last interior pivot;
``scatter_targets`` reads the targets off a round's scatter plan: its
rake targets, or its compress neighbours a then b.
``dirichlet_floor_sequential`` bisects one arithmetic midpoint per sweep to
relative 1e-12, the reference that the package's interpolating floor must
match within its 1e-9 tolerance.
"""

from __future__ import annotations

import numpy as np

from crt_spectra import spectrum
from crt_spectra._kernels import _ZERO_PIVOT, NUDGE, ContractionSchedule
from crt_spectra.asymptotics import EnsembleResult
from crt_spectra.errors import CapacityError
from crt_spectra.forms import ResistanceNetwork, subnetwork_fresh
from crt_spectra.spectrum import Pencil, count_below, network_counts

from cascade_oracle import w_levels


class TruncationError(Exception):
    """A heat-trace remainder bound exceeds the requested accuracy."""


def network_pencil(net: ResistanceNetwork) -> Pencil:
    """Pencil of a dendrite network, bounded by its corners, vertices 0 and 1."""
    e0, e1 = net.structure.ep0, net.structure.ep1
    return Pencil(e0.copy(), e1.copy(), net.conductance.copy(), net.vertex_mass.copy(), (0, 1))


def dense_matrices(pencil: Pencil, dirichlet: bool) -> tuple[np.ndarray, np.ndarray]:
    """Dense stiffness matrix and mass diagonal, with the boundary rows deleted when ``dirichlet``."""
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
    if dirichlet:
        keep = ~np.isin(np.arange(nv), pencil.boundary)
        stiff, mass = stiff[np.ix_(keep, keep)], mass[keep]
    return stiff, mass


def dense_count_pair(pencil: Pencil, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann) counts of pencil eigenvalues <= each lambda, by a dense Sylvester count.

    M is diagonal and positive, so by Sylvester's law of inertia the count
    equals the number of nonpositive eigenvalues of L - lambda (1 + 1e-12) M
    itself. eigvalsh errs by about eps times the matrix norm; scaling by
    M**-1/2 would multiply that norm by up to 1 / min(M), which on random
    cascades swamps the eigenvalues near lambda. For lambda <= 0 the count
    is exact, as in the package's engine: L is positive semidefinite with
    the constants as its Neumann kernel on a connected tree, and eigvalsh
    would round that zero eigenvalue to either sign.
    """
    pair = []
    for dirichlet in (True, False):
        stiff, mass = dense_matrices(pencil, dirichlet)
        counts = np.array([int(lam == 0.0 and not dirichlet) for lam in lams], dtype=np.int64)
        for i in np.flatnonzero(lams > 0.0):
            counts[i] = (np.linalg.eigvalsh(stiff - np.diag(lams[i] * (1.0 + NUDGE) * mass)) <= 0.0).sum()
        pair.append(counts)
    return pair[0], pair[1]


def dense_eigenvalues(pencil: Pencil, dirichlet: bool = False) -> np.ndarray:
    """All eigenvalues of M**-1/2 L M**-1/2 by the dense symmetric solver, Neumann unless ``dirichlet``.

    The solver errs by about eps times the largest eigenvalue, so the small
    ones are accurate only on well-scaled pencils, such as the uniform
    cascade's. Raises ValueError when it loses the bottom of the spectrum:
    at x, the midpoint of the two smallest values (the value itself if it
    is alone) clipped at 0, the number of values <= x must equal the dense
    Sylvester count, which works on the unscaled L - x M.
    """
    stiff, mass = dense_matrices(pencil, dirichlet)
    if stiff.shape[0] == 0:
        return np.zeros(0)
    s = 1.0 / np.sqrt(mass)
    sym = stiff * s[:, None] * s[None, :]
    eigs = np.linalg.eigvalsh(sym)
    x = max(0.0, float(eigs[:2].mean()))
    dd, dn = dense_count_pair(pencil, np.array([x]))
    got, want = int((eigs <= x).sum()), int((dd if dirichlet else dn)[0])
    if got != want:
        raise ValueError(f"dense spectrum lost its bottom: {got} values <= {x}, where Sylvester's law counts {want}")
    return eigs


def eigenvalues_up_to(
    pencil: Pencil, lam_max: float, tol: float, cap: int = 200_000, dirichlet: bool = False
) -> np.ndarray:
    """All eigenvalues <= lam_max, each within +-tol, with multiplicities; Neumann unless ``dirichlet``.

    Pure bisection on the exact counts: robust to clustering, no inverse
    iteration. Raises CapacityError when more than ``cap`` eigenvalues lie
    below lam_max.
    """
    if lam_max <= 0 or tol <= 0:
        raise ValueError("lam_max and tol must be positive")
    lo0 = -tol
    n_lo, n_hi = count_below(pencil, lo0, dirichlet), count_below(pencil, lam_max, dirichlet)
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
        cmid = count_below(pencil, mid, dirichlet)
        stack.append((lo, mid, clo, cmid))
        stack.append((mid, hi, cmid, chi))
    out.sort()
    return np.repeat([v for v, _ in out], [m for _, m in out])


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


def inertia_counts_per_shift(
    sched: ContractionSchedule, mass: np.ndarray, conduct: np.ndarray, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann, final-round) counts <= lambda and the last interior pivot, one sweep per shift.

    The reference for the package's shift-blocked ``inertia_counts``, which
    must return the same four arrays bit for bit. Each round adds its rake
    terms to the targets of its rake plan, and scatters its compress terms
    with plain ``np.add.at`` over its a and b neighbours, taken from the
    concatenated targets of its compress plan.
    """
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    b0, b1 = sched.b0, sched.b1
    out_d = np.zeros(lams.shape[0], dtype=np.int64)
    out_n = np.zeros(lams.shape[0], dtype=np.int64)
    out_last = np.zeros(lams.shape[0], dtype=np.int64)
    out_pivot = np.full(lams.shape[0], np.nan)
    for t, lam in enumerate(lams):
        if lam < 0.0:
            continue
        if lam == 0.0:
            out_n[t] = 1  # constant eigenfunction on a connected tree
            continue
        lam_eff = lam * (1.0 + NUDGE)
        acc = np.zeros(mass.shape[0])
        g = np.empty(sched.n_slots)
        g[: conduct.shape[0]] = conduct
        interior = last = 0
        for leaf, rake, leaf_slot, mid, slot_a, slot_b, fill, scatter, *_ in sched.rounds:
            a, b = np.split(scatter_targets(scatter), 2)
            c = g[leaf_slot]
            h = acc[leaf] - lam_eff * mass[leaf]
            p = c + h
            p = np.where(p == 0.0, -_ZERO_PIVOT, p)
            last = int((p <= 0.0).sum())
            if p.shape[0]:
                out_pivot[t] = p[-1]
            acc[scatter_targets(rake)] += c * h / p
            ga, gb = g[slot_a], g[slot_b]
            h = acc[mid] - lam_eff * mass[mid]
            p = ga + gb + h
            p = np.where(p == 0.0, -_ZERO_PIVOT, p)
            last += int((p <= 0.0).sum())
            interior += last
            if p.shape[0]:
                out_pivot[t] = p[-1]
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
        out_last[t] = last
    return out_d, out_n, out_last, out_pivot


def scatter_targets(scatter) -> np.ndarray:
    """A scatter plan's targets in term order, slices resolved: a round's rake targets, or its a then b neighbours."""
    parts = [np.arange(t.start, t.stop, t.step) if isinstance(t, slice) else t for _, _, t in scatter]
    return np.concatenate([np.zeros(0, dtype=np.int64)] + parts)


def dirichlet_floor_sequential(net: ResistanceNetwork, diameter: float) -> float:
    """Smallest Dirichlet eigenvalue by plain bisection, one single-shift sweep per step."""

    def count(lam: float) -> int:
        return int(spectrum.network_counts(net, np.array([lam]))[0][0])

    lo = (1.0 - 1e-9) / diameter
    hi = max(1.0, 2.0 * lo)
    while count(hi) < 1:
        hi *= 8.0
    if count(lo) >= 1:
        lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if count(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return hi


def eta_fresh(net: ResistanceNetwork, ts: np.ndarray) -> np.ndarray:
    """eta(t) = N_D(e**t) - sum_j N_D,j(e**t w(j)**3) with every cell re-assembled.

    Each first-generation cell is assembled from the shifted cascade and
    counted at the rescaled shift, independently of the final contraction
    round that :func:`eta_many` reads; the two agree except on a
    measure-zero set of shifts.
    """
    lams = np.exp(np.asarray(ts, dtype=np.float64))
    full_d, _ = network_counts(net, lams)
    w1 = w_levels(net.cascade)[1]
    for j in (1, 2, 3):
        d, _ = network_counts(subnetwork_fresh(net, j), lams * float(w1[j - 1]) ** 3)
        full_d -= d
    return full_d


def telescoping_identity_gap(net: ResistanceNetwork, ts: np.ndarray, k_max: int) -> np.ndarray:
    """Check X(t) = sum_{|i|<k} eta_i(t + 3 ln l(i)) + level-k boundary sum.

    All per-address terms are computed on freshly assembled subnetworks at
    the rescaled shifts, independently of the one-sweep path used by
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
        acc += eta_fresh(sub, ts + 3.0 * np.log(l_i))
        w1 = w_levels(sub.cascade)[1]
        for j in (1, 2, 3):
            visit(subnetwork_fresh(sub, j), l_i * float(w1[j - 1]), depth + 1)

    visit(net, 1.0, 0)
    return full_d - acc


def trace_plateau(result: EnsembleResult, window: tuple[float, float], n_total: int, t_points: int = 33) -> dict:
    """Plateau of t**(2/3) x mean Neumann heat trace over the mapped window.

    Times map to the resolved lambda window through t = 1/lambda; the trace
    comes from the mean counting curve with certified placement bounds.
    ``n_total`` bounds the number of eigenvalues (a vertex count), which
    bounds the tail above the grid.
    """
    lo, hi = window
    ts = 1.0 / np.geomspace(hi, lo, t_points)
    mean_n = result.neumann.mean(axis=0)
    values = []
    bounds = []
    for t in ts:
        v, b = trace_from_curve(result.lambdas, mean_n, float(t), n_total)
        values.append(v)
        bounds.append(b)
    values = np.array(values)
    scaled = ts ** (2.0 / 3.0) * values
    return {
        "t_grid": ts.tolist(),
        "scaled_trace": scaled.tolist(),
        "plateau": float(scaled.mean()),
        "max_error_bound": float(max(bounds)),
    }
