import mpmath
import numpy as np
import pytest

from crt_spectra import _kernels, excursion, forms, spectrum
from crt_spectra._kernels import contraction_schedule
from crt_spectra.cascade import CascadeTree, HEIGHT_CONSTANT
from crt_spectra.dendrite import structure
from crt_spectra.errors import CapacityError, GuardError
from crt_spectra.spectrum import Pencil

import spectrum_oracle
from cascade_oracle import w_levels
from conftest import drawn_network, small_network
from dendrite_oracle import address_order_network
from forms_oracle import cell_block
from spectrum_oracle import TruncationError, network_pencil


def debug_network(depth):
    return forms.assemble(depth, CascadeTree.debug(depth).base_lengths, np.ones(3**depth))


# -- level-0 closed form ----------------------------------------------------------


def test_level0_closed_form_spectrum():
    # level 0 is one edge of conductance H/R between two half masses: {0, 4 H / R}
    net, _, r_base = drawn_network(0, seed=1)
    r = r_base[0]
    pen = network_pencil(net)
    dense = spectrum_oracle.dense_eigenvalues(pen)
    want = np.array([0.0, 4.0 * HEIGHT_CONSTANT / r])
    np.testing.assert_allclose(dense, want, atol=1e-12)
    jump = 4.0 * HEIGHT_CONSTANT / r
    lams = np.array([0.0, 0.9 * jump, jump, 1.1 * jump])
    nd, nn = spectrum.network_counts(net, lams)
    np.testing.assert_array_equal(nn, [1, 1, 2, 2])
    np.testing.assert_array_equal(nd, [0, 0, 0, 0])  # no interior vertices


def test_neumann_zero_count():
    for depth in (0, 2, 4):
        net = small_network(depth, seed=depth + 1)
        nd, nn = spectrum.network_counts(net, np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(nd, [0, 0])
        np.testing.assert_array_equal(nn, [0, 1])


def test_dense_count_at_and_below_zero():
    # eigvalsh rounds the Neumann kernel of L to either sign; the oracle
    # counts exactly at lambda <= 0, as the engine does
    for depth in range(5):
        for seed in range(20):
            net = small_network(depth, seed=seed)
            lams = np.array([-1.0, 0.0])
            dense = spectrum_oracle.dense_count_pair(network_pencil(net), lams)
            np.testing.assert_array_equal(dense, spectrum.network_counts(net, lams))


# -- oracle equivalence -------------------------------------------------------------


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 7])
def test_inertia_matches_dense_oracle(depth):
    # random cascades through depth 6 against the dense Sylvester count, one
    # eigvalsh of L - lambda M per shift; at depth 7 that takes 13-27 s per
    # pencil, so the uniform cascade, whose mass-normalized matrix is well
    # scaled, is checked against one dense spectrum instead
    lams = np.geomspace(0.3, 3e5, 20)
    if depth == 7:
        net = debug_network(depth)
        nd, nn = spectrum.network_counts(net, lams)
        for dirichlet, counts in ((True, nd), (False, nn)):
            eigs = spectrum_oracle.dense_eigenvalues(network_pencil(net), dirichlet)
            np.testing.assert_array_equal((eigs[:, None] <= lams * (1.0 + 1e-12)).sum(axis=0), counts)
        return
    for seed in range(3):
        net = small_network(depth, seed=seed + 10 * depth)
        nd, nn = spectrum.network_counts(net, lams)
        dd, dn = spectrum_oracle.dense_count_pair(network_pencil(net), lams)
        np.testing.assert_array_equal(dd, nd)
        np.testing.assert_array_equal(dn, nn)


def _mp_counts(pen: Pencil, lam: float) -> tuple[int, int]:
    """(Dirichlet, Neumann) counts by a 60-digit leaf-first elimination.

    Plain Schur-complement form, pivot = diagonal - sum of c**2 / child
    pivot, in a breadth-first order from boundary[0] reversed; the Dirichlet
    pass skips both boundary rows, so their edges stay on the diagonal.
    """
    with mpmath.workdps(60):
        nv = pen.n_vertices
        nbrs = [[] for _ in range(nv)]
        for u, v, c in zip(pen.edge_u.tolist(), pen.edge_v.tolist(), pen.edge_c.tolist()):
            nbrs[u].append((v, mpmath.mpf(c)))
            nbrs[v].append((u, mpmath.mpf(c)))
        shift = mpmath.mpf(lam * (1.0 + 1e-12))
        diag = [sum(c for _, c in nbrs[v]) - shift * mpmath.mpf(float(pen.mass[v])) for v in range(nv)]
        root, other = pen.boundary
        parent, coup, order = [-1] * nv, [None] * nv, [root]
        for v in order:
            for w, c in nbrs[v]:
                if w != root and parent[w] < 0:
                    parent[w], coup[w] = v, c
                    order.append(w)
        counts = []
        for skip in ((root, other), ()):
            d = list(diag)
            neg = 0
            for v in reversed(order):
                if v in skip:
                    continue
                neg += d[v] <= 0
                if v != root and parent[v] not in skip:
                    d[parent[v]] -= coup[v] ** 2 / d[v]
            counts.append(neg)
        return counts[0], counts[1]


def test_inertia_matches_mpmath_past_dense_cap():
    net = small_network(8, seed=3)
    pen = network_pencil(net)
    with pytest.raises(CapacityError):
        spectrum_oracle.dense_matrices(pen, False)
    floor = spectrum.dirichlet_floor(net, forms.diameter(net))
    lams = np.geomspace(floor * (1.0 + 1e-6), 1e12, 12)
    nd, nn = spectrum.count_pair(pen, lams)
    assert nd[0] == 1
    for i, lam in enumerate(lams):
        assert _mp_counts(pen, float(lam)) == (nd[i], nn[i])


def _relabelled(pen: Pencil, rng) -> Pencil:
    # new vertex ids and a new edge order; the boundary maps along
    perm = rng.permutation(pen.n_vertices)
    eperm = rng.permutation(pen.edge_u.shape[0])
    mass = np.empty_like(pen.mass)
    mass[perm] = pen.mass
    bnd = (int(perm[pen.boundary[0]]), int(perm[pen.boundary[1]]))
    return Pencil(perm[pen.edge_u[eperm]], perm[pen.edge_v[eperm]], pen.edge_c[eperm], mass, bnd)


def test_counts_independent_of_elimination_order():
    rng = np.random.default_rng(4)
    tree = excursion.reduced_tree(excursion.sample_excursion(2**12, 41), 150, seed=3)
    cases = [
        (network_pencil(small_network(5, seed=5)), np.geomspace(0.3, 3e5, 40)),
        (Pencil.from_tree(tree), np.geomspace(1.0, 1e7, 40)),
    ]
    for pen, lams in cases:
        shuffled = _relabelled(pen, rng)
        nd, nn = spectrum.count_pair(pen, lams)
        sd, sn = spectrum.count_pair(shuffled, lams)
        assert 0 < nn[0] and nn[-1] > nn[0]
        np.testing.assert_array_equal(sd, nd)
        np.testing.assert_array_equal(sn, nn)
    # a level-n dendrite contracts one refinement level per round
    for level in range(1, 7):
        assert len(structure(level).rounds) == level
    # a path contracts by compressing alone, in O(log V) rounds
    n = 2**14
    path = contraction_schedule(np.arange(n - 1), np.arange(1, n), n, 0, n - 1)
    assert len(path.rounds) <= 40


def test_tree_engine_matches_dense_on_excursion_trees():
    # a one-leaf tree and a depth-0 network have no interior vertex: no Dirichlet eigenvalue
    p = excursion.sample_excursion(2048, 31)
    lams = np.geomspace(0.5, 1e4, 15)
    pencils = [Pencil.from_tree(excursion.reduced_tree(p, k, seed=2)) for k in (25, 1)]
    pencils.append(network_pencil(small_network(0, seed=3)))
    assert [pen.n_vertices for pen in pencils[1:]] == [2, 2]
    for pen in pencils:
        np.testing.assert_array_equal(spectrum_oracle.dense_count_pair(pen, lams), spectrum.count_pair(pen, lams))


def test_pencil_rejects_bad_boundary():
    eu, ev = np.array([0, 1]), np.array([1, 2])
    for bnd in ((0, 0), (2, 2), (0, 3), (-1, 2)):
        with pytest.raises(ValueError, match="boundary"):
            Pencil(eu, ev, np.ones(2), np.ones(3), bnd)


def test_count_pair_rejects_non_tree_pencils():
    two_parts = Pencil(np.array([0, 2]), np.array([1, 3]), np.ones(2), np.ones(4), (0, 1))
    with pytest.raises(ValueError, match="not connected"):
        spectrum.count_pair(two_parts, np.array([1.0]))
    cycle = Pencil(np.array([0, 1, 2]), np.array([1, 2, 0]), np.ones(3), np.ones(3), (0, 1))
    with pytest.raises(ValueError, match="not a tree"):
        spectrum.count_pair(cycle, np.array([1.0]))
    # V - 1 edges each: a triangle through b0 with b1 isolated, and a self-loop
    # at b0 with b1 isolated, end on a last edge that misses b1; a triangle
    # through each of b0 and b1 beside an isolated vertex shrinks to two
    # self-loops, and the contraction stalls
    for u, v, nv in (([0, 2, 3], [2, 3, 0], 4), ([0], [0], 2), ([0, 2, 3, 1, 4, 5], [2, 3, 0, 4, 5, 1], 7)):
        not_tree = Pencil(np.array(u), np.array(v), np.ones(len(u)), np.ones(nv), (0, 1))
        with pytest.raises(ValueError, match="not connected"):
            spectrum.count_pair(not_tree, np.array([1.0]))
    for u, v in (([0, 1], [2, 3]), ([0, -1], [1, 2])):
        out_of_range = Pencil(np.array(u), np.array(v), np.ones(2), np.ones(3), (0, 1))
        with pytest.raises(ValueError, match="endpoints"):
            spectrum.count_pair(out_of_range, np.array([1.0]))


# -- structural properties ------------------------------------------------------------


def test_counts_monotone_and_gap():
    net = small_network(4, seed=3)
    lams = np.geomspace(0.1, 1e6, 60)
    nd, nn = spectrum.network_counts(net, lams)
    assert (np.diff(nd) >= 0).all() and (np.diff(nn) >= 0).all()
    gaps = set((nn - nd).tolist())
    assert gaps <= {0, 1, 2}


def test_homogeneity_of_counts():
    # scaling all conductances by a multiplies every eigenvalue by a
    net = small_network(3, seed=5)
    a = 7.3
    scaled = forms.ResistanceNetwork(3, net.conductance * a, net.vertex_mass)
    lams = np.geomspace(0.5, 1e5, 30)
    nd0, nn0 = spectrum.network_counts(net, lams)
    nd1, nn1 = spectrum.network_counts(scaled, a * lams)
    np.testing.assert_array_equal(nd0, nd1)
    np.testing.assert_array_equal(nn0, nn1)


# -- Dirichlet floor ---------------------------------------------------------------


def test_dirichlet_floor_debug_against_dense():
    net = debug_network(1)
    pen = network_pencil(net)
    dense = spectrum_oracle.dense_eigenvalues(pen, dirichlet=True)
    floor = spectrum.dirichlet_floor(net, forms.diameter(net))
    assert abs(floor - dense[0]) < 1e-8 * dense[0]


def test_dirichlet_floor_diameter_bound():
    for seed in range(20):
        net = small_network(4, seed=seed)
        spectrum.dirichlet_floor(net, forms.diameter(net))  # raises on violation


# the ensemble commands' default lambda grid, whose Dirichlet curve seeds the floor's bracket
CURVE_GRID = np.geomspace(1.0, 1e8, 97)


def test_floor_within_tolerance_of_sequential_bisection(monkeypatch):
    # one-midpoint-per-sweep bisection to relative 1e-12 is the reference; the
    # search stops at relative 1e-9 above the floor, on both bracket paths (the
    # network's own curve, and [1/diameter, Rayleigh bound] without one), at the
    # natural block width and at width 1, which splits the two-shift checking sweep
    cases = []
    for depth in range(1, 9):
        for net in [small_network(depth, seed=seed) for seed in range(10)] + [debug_network(depth)]:
            d = forms.diameter(net)
            nd = spectrum.network_counts(net, CURVE_GRID)[0]
            assert nd[0] == 0 and nd[-1] >= 1  # the grid brackets the floor
            cases.append((net, d, nd, spectrum_oracle.dirichlet_floor_sequential(net, d)))
    for block_bytes in (_kernels._SHIFT_BLOCK_BYTES, 1):
        monkeypatch.setattr(_kernels, "_SHIFT_BLOCK_BYTES", block_bytes)
        for i, (net, d, nd, ref) in enumerate(cases):
            for curve in ((CURVE_GRID, nd), ()):
                floor = spectrum.dirichlet_floor(net, d, *curve)
                assert 0.0 <= floor / ref - 1.0 <= 1e-9 + 1e-12, (block_bytes, i, len(curve))


def _recorded_sweeps(monkeypatch) -> list[int]:
    """Shifts per spectrum.network_counts call, the floor's only way to count."""
    calls = []
    counts = spectrum.network_counts

    def record(net, lams, pivot=False):
        calls.append(len(lams))
        return counts(net, lams, pivot)

    monkeypatch.setattr(spectrum, "network_counts", record)
    return calls


def test_floor_falls_back_when_the_grid_misses_it(monkeypatch):
    # a grid wholly above or below the floor, or of one point, brackets nothing:
    # the search then starts with its two-shift sweep of [1/diameter, Rayleigh bound]
    calls = _recorded_sweeps(monkeypatch)
    for seed in range(3):
        net = small_network(5, seed=seed)
        d = forms.diameter(net)
        ref = spectrum_oracle.dirichlet_floor_sequential(net, d)
        for lams in (np.geomspace(2.0 * ref, 1e8, 40), np.geomspace(1e-3, 0.5 * ref, 40), np.array([0.5 * ref])):
            nd = spectrum.network_counts(net, lams)[0]
            calls.clear()
            floor = spectrum.dirichlet_floor(net, d, lams, nd)
            assert calls[0] == 2 and 0.0 <= floor / ref - 1.0 <= 1e-9 + 1e-12, (seed, lams[0])


def test_floor_bracket_guard():
    # a diameter of 0.1 / floor puts its lower bound at ten times the floor: the
    # checking sweep finds no bracket, and on the curve path the bound lies above
    # the grid's upper end, with no sweep at all
    net = small_network(4, seed=3)
    d = forms.diameter(net)
    nd = spectrum.network_counts(net, CURVE_GRID)[0]
    floor = spectrum.dirichlet_floor(net, d)
    for curve in ((), (CURVE_GRID, nd)):
        with pytest.raises(GuardError, match="not bracketed"):
            spectrum.dirichlet_floor(net, 0.1 / floor, *curve)
    # a curve whose count-0 end lies above the Rayleigh bound contradicts it as well
    with pytest.raises(GuardError, match="not bracketed"):
        spectrum.dirichlet_floor(net, d, np.array([1e6, 2e6]), np.array([0, 1]))


def test_floor_needs_both_lams_and_counts():
    # a grid without its counts, or counts without their grid, is an error,
    # before any sweep; with neither the fallback bracket is used
    net = small_network(3, seed=4)
    d = forms.diameter(net)
    nd = spectrum.network_counts(net, CURVE_GRID)[0]
    for args in ((CURVE_GRID,), (None, nd)):
        with pytest.raises(ValueError, match="both or neither"):
            spectrum.dirichlet_floor(net, d, *args)
    assert spectrum.dirichlet_floor(net, d, None, None) == spectrum.dirichlet_floor(net, d)


def test_floor_sweep_budget(monkeypatch):
    # at depth 10 the curve-seeded search takes single-shift sweeps only, with
    # no bracket sweep: 5 to 9 of them on seeds 0-11 (9 on seed 7), against 35
    # for geometric bisection of the analytic bracket
    net = small_network(10, seed=7)
    nd = spectrum.network_counts(net, CURVE_GRID)[0]
    calls = _recorded_sweeps(monkeypatch)
    spectrum.dirichlet_floor(net, forms.diameter(net), CURVE_GRID, nd)
    assert set(calls) == {1} and len(calls) <= 12, calls


def test_floor_sweep_cap_is_loud(monkeypatch):
    # a tolerance no bracket can meet: after its two-shift checking sweep the
    # search runs its 200 single-shift sweeps and raises, rather than return hi
    monkeypatch.setattr(spectrum, "_FLOOR_RTOL", -1.0)
    net = small_network(3, seed=1)
    calls = _recorded_sweeps(monkeypatch)
    with pytest.raises(GuardError, match="did not converge"):
        spectrum.dirichlet_floor(net, forms.diameter(net))
    assert calls == [2] + [1] * 200


def test_floor_scaling_in_mass():
    # L - lambda M is homogeneous: conductances times 4 (or masses divided
    # by 4, which a mass-one network cannot take) multiply the floor by 4
    net = small_network(3, seed=9)
    floor = spectrum.dirichlet_floor(net, forms.diameter(net))
    stiff = forms.ResistanceNetwork(3, net.conductance * 4.0, net.vertex_mass)
    floor4 = spectrum.dirichlet_floor(stiff, forms.diameter(stiff))
    assert abs(floor4 / (4.0 * floor) - 1.0) < 1e-9


# -- bracketing and eta ----------------------------------------------------------------


def test_bracketing_trivial_below_floor():
    net, casc, r_base = drawn_network(3, seed=11)
    floor = spectrum.dirichlet_floor(net, forms.diameter(net))
    lams = np.array([0.5 * floor])
    nd, nn = spectrum.network_counts(net, lams)
    assert nd[0] == 0 and nn[0] >= 1
    assert not spectrum.bracketing_check(casc, r_base, lams, nd, nn).any()


def test_bracketing_exact_chains():
    lams = np.geomspace(1.0, 1e6, 50)
    for seed in range(5):
        net, casc, r_base = drawn_network(5, seed=seed + 40)
        nd, nn = spectrum.network_counts(net, lams)
        assert not spectrum.bracketing_check(casc, r_base, lams, nd, nn).any(), seed


def test_bracketing_flags_each_broken_link():
    # full counts broken at one lambda: a Dirichlet count of -1, below any cell sum;
    # Dirichlet above Neumann; Neumann above the cells' sum; a gap of 3
    net, casc, r_base = drawn_network(4, seed=2)
    lams = np.geomspace(1.0, 1e5, 20)
    nd, nn = spectrum.network_counts(net, lams)
    k = 12
    for which, value in (("d", -1), ("d", nn[k] + 1), ("n", 10**6), ("n", nd[k] + 3)):
        d, n = nd.copy(), nn.copy()
        (d if which == "d" else n)[k] = value
        bad = spectrum.bracketing_check(casc, r_base, lams, d, n)
        np.testing.assert_array_equal(np.flatnonzero(bad), [k], err_msg=f"{which}={value}")


def test_eta_bounded_and_zero_below_floor():
    for seed in range(5):
        net = small_network(4, seed=seed + 60)
        diam = forms.diameter(net)
        ts = np.linspace(-2.0, 12.0, 60)
        etas = spectrum.eta_many(net, ts)
        assert ((etas >= 0) & (etas <= 2)).all()
        below = ts < -np.log(diam)
        assert (etas[below] == 0).all()


def test_eta_methods_agree():
    net, casc, r_base = drawn_network(4, seed=71)
    ts = np.linspace(-1.0, 10.0, 80)
    np.testing.assert_array_equal(spectrum.eta_many(net, ts), spectrum_oracle.eta_fresh(net, casc, r_base, ts))


def test_evolution_identity_exact():
    # N_D(e**t) = eta(t) + sum_j N_D,j(e**t w(j)**3): the one-sweep eta
    # plus fresh cell assemblies counted at the rescaled shifts
    for seed in (5, 6):
        net, casc, r_base = drawn_network(5, seed=seed)
        ts = np.linspace(-1.0, 11.0, 40)
        lams = np.exp(ts)
        gap, _ = spectrum.network_counts(net, lams)
        gap -= spectrum.eta_many(net, ts)
        w1 = w_levels(casc)[1]
        for j in (1, 2, 3):
            sub = forms.subnetwork_fresh(casc, r_base, j)
            gap -= spectrum.network_counts(sub, lams * float(w1[j - 1]) ** 3)[0]
        np.testing.assert_array_equal(gap, 0)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 7, 8])
def test_one_sweep_eta_matches_cell_block_sweeps(depth):
    # eta read off the final contraction round equals the full Dirichlet
    # count minus the three embedded cell blocks, each in a sweep of its own
    ts = np.linspace(-3.0, np.log(1e8), 241)
    lams = np.exp(ts)
    for seed in range(4):
        net, casc, _ = drawn_network(depth, seed=100 * depth + seed)
        want, _ = spectrum.network_counts(net, lams)
        for j in (1, 2, 3):
            want -= spectrum.block_counts(depth - 1, *cell_block(net, casc.base_lengths**2, j), lams)[0]
        np.testing.assert_array_equal(spectrum.eta_many(net, ts), want)


def test_dendrite_schedule_final_round_pivots_midpoint_and_tip():
    for n in range(1, 9):
        sched = structure(n)
        assert len(sched.rounds) == n
        leaf, rake, _, mid, _, _, _, scatter = sched.rounds[-1][:8]
        ids = np.arange(structure(n).n_vertices)  # resolves slice-stored index sets
        assert ids[leaf].tolist() == [3] and spectrum_oracle.scatter_targets(rake).tolist() == [2]
        assert ids[mid].tolist() == [2]
        assert sorted(spectrum_oracle.scatter_targets(scatter).tolist()) == [0, 1]


def test_telescoping_identity_exact():
    _, casc, r_base = drawn_network(5, seed=77)
    ts = np.linspace(0.0, 10.0, 9)
    for k in (1, 2, 3):
        np.testing.assert_array_equal(spectrum_oracle.telescoping_identity_gap(casc, r_base, ts, k), 0)


# -- eigenvalue extraction ---------------------------------------------------------------


def test_dense_spectrum_raises_when_it_loses_its_bottom():
    # this random cascade's Dirichlet pencil has its floor at 2.75 and its top
    # eigenvalue at 1.6e19; the M**-1/2 scaling returns a first eigenvalue of
    # about -526, and the Sylvester count at the midpoint of the two smallest
    # values (clipped at 0) finds none where the scaled spectrum has one. The
    # pencil is numbered in address order: the dense solver's rounding, and so
    # the size of that error, depends on the vertex order
    ref = address_order_network(*drawn_network(6, seed=3)[1:])
    pen = Pencil(ref.structure.ep0, ref.structure.ep1, ref.conductance, ref.vertex_mass, (0, 1))
    with pytest.raises(ValueError, match="lost its bottom"):
        spectrum_oracle.dense_eigenvalues(pen, dirichlet=True)


def test_eigenvalues_level0():
    net, _, r_base = drawn_network(0, seed=21)
    r = r_base[0]
    pen = network_pencil(net)
    top = 4.0 * HEIGHT_CONSTANT / r
    eigs = spectrum_oracle.eigenvalues_up_to(pen, 1.5 * top, tol=1e-10)
    np.testing.assert_allclose(eigs, [0.0, top], atol=1e-9)


def test_eigenvalues_match_debug_dense():
    # well-conditioned problem: the dense oracle is accurate here
    net = debug_network(3)
    pen = network_pencil(net)
    dense = spectrum_oracle.dense_eigenvalues(pen)
    lam_max = float(dense[-1] * 1.01)
    fast = spectrum_oracle.eigenvalues_up_to(pen, lam_max, tol=1e-8 * lam_max)
    assert fast.shape[0] == dense.shape[0]
    np.testing.assert_allclose(fast[1:], dense[1:], rtol=1e-6)


def test_eigenvalues_match_random_dense_scale_aware():
    # random cascades are badly conditioned: eigvalsh carries an absolute
    # error of order eps * lambda_max, so compare with a mixed tolerance
    net = small_network(4, seed=23)
    pen = network_pencil(net)
    dense = spectrum_oracle.dense_eigenvalues(pen)
    lam_max = float(dense[30] * 1.0001)
    fast = spectrum_oracle.eigenvalues_up_to(pen, lam_max, tol=1e-9 * lam_max)
    dsel = dense[dense <= lam_max * (1 + 1e-12)]
    assert fast.shape[0] == dsel.shape[0]
    tol = 1e-6 * np.abs(dsel) + 1e-12 * float(dense[-1])
    assert (np.abs(fast - dsel) <= tol).all()


def test_eigenvalues_consistent_with_counts():
    net = small_network(3, seed=25)
    pen = network_pencil(net)
    eigs = spectrum_oracle.eigenvalues_up_to(pen, 500.0, tol=1e-9, dirichlet=True)
    assert (np.diff(eigs) >= 0).all()
    for lam in (0.5, 5.0, 50.0, 499.0):
        assert (eigs <= lam).sum() == spectrum.count_below(pen, lam, dirichlet=True)


def test_eigenvalues_cap():
    net = small_network(3, seed=26)
    pen = network_pencil(net)
    with pytest.raises(CapacityError):
        spectrum_oracle.eigenvalues_up_to(pen, 1e12, tol=1.0, cap=5)


# -- heat traces ----------------------------------------------------------------------


def test_heat_trace_limits():
    eigs = np.array([0.0, 2.0, 5.0])
    big, _ = spectrum_oracle.heat_trace(eigs, 1e3)
    assert abs(big - 1.0) < 1e-12  # Neumann: only the kernel survives
    small_d, _ = spectrum_oracle.heat_trace(np.array([2.0, 5.0]), 1e3)
    assert small_d < 1e-100  # Dirichlet: everything decays


def test_heat_trace_remainder_guard():
    eigs = np.array([0.0, 1.0])
    val, bound = spectrum_oracle.heat_trace(eigs, 0.5, lam_max=10.0, n_above=100)
    assert bound == pytest.approx(100 * np.exp(-5.0))
    with pytest.raises(TruncationError):
        spectrum_oracle.heat_trace(eigs, 0.5, lam_max=10.0, n_above=100, max_remainder=1e-6)


def test_trace_from_curve_matches_exact_list():
    net = small_network(3, seed=29)
    pen = network_pencil(net)
    eigs = spectrum_oracle.dense_eigenvalues(pen)
    lams = np.geomspace(1e-2, 10 * eigs[-1], 400)
    _, nn = spectrum.network_counts(net, lams)
    for t in (1e-4, 1e-3, 1e-2):
        exact = float(np.exp(-np.clip(eigs, 0, None) * t).sum())
        approx, bound = spectrum_oracle.trace_from_curve(lams, nn, t, net.n_vertices)
        assert abs(approx - exact) <= bound + 1e-9 * exact
        assert abs(approx / exact - 1.0) < 0.02


def test_gamma_reference_values():
    import math

    assert math.gamma(2.0) == 1.0
    assert abs(math.gamma(0.5) - np.sqrt(np.pi)) < 1e-15
    assert abs(math.gamma(5.0 / 3.0) - 0.90275) < 5e-6
