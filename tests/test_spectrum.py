import mpmath
import numpy as np
import pytest

from crt_spectra import cascade, excursion, forms, spectrum
from crt_spectra._kernels import contraction_schedule
from crt_spectra.cascade import Address, CascadeTree, HEIGHT_CONSTANT, PerturbationTable
from crt_spectra.dendrite import structure
from crt_spectra.errors import CapacityError, TruncationError
from crt_spectra.spectrum import Pencil

from conftest import small_network


def debug_network(depth):
    return forms.assemble(depth, CascadeTree.debug(depth), PerturbationTable.ones(depth))


# -- level-0 closed form ----------------------------------------------------------


def test_level0_closed_form_spectrum():
    net = small_network(0, seed=1)
    r = net.perturbations.value_at(Address())
    pen = Pencil.from_network(net, "neumann")
    dense = spectrum.dense_eigenvalues(pen)
    want = spectrum.level0_neumann_eigenvalues(r)
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


# -- oracle equivalence -------------------------------------------------------------


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 7])
def test_inertia_matches_dense_oracle(depth):
    # eigvalsh errs by about eps * lambda_max, and random cascades reach
    # lambda_max ~ 1e17 from depth 5 on; past depth 4 only the uniform
    # cascade leaves the dense solver accurate enough to serve as the oracle
    lams = np.geomspace(0.3, 3e5, 20)
    nets = [small_network(depth, seed=seed + 10 * depth) for seed in range(3)] if depth <= 4 else [debug_network(depth)]
    for net in nets:
        nd, nn = spectrum.network_counts(net, lams)
        for kind, counts in (("dirichlet", nd), ("neumann", nn)):
            eigs = spectrum.dense_eigenvalues(Pencil.from_network(net, kind))
            np.testing.assert_array_equal((eigs[:, None] <= lams * (1.0 + 1e-12)).sum(axis=0), counts)


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
    pen = Pencil.from_network(net)
    with pytest.raises(CapacityError):
        spectrum.dense_matrices(pen)
    floor = spectrum.dirichlet_floor(net)
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
        (Pencil.from_network(small_network(5, seed=5)), np.geomspace(0.3, 3e5, 40)),
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
        assert len(structure(level).schedule.rounds) == level
    # a path contracts by compressing alone, in O(log V) rounds
    n = 2**14
    path = contraction_schedule(np.arange(n - 1), np.arange(1, n), n, 0, n - 1)
    assert len(path.rounds) <= 40


def test_tree_engine_matches_dense_on_excursion_trees():
    p = excursion.sample_excursion(2048, 31)
    tree = excursion.reduced_tree(p, 25, seed=2)
    pen = Pencil.from_tree(tree)
    lams = np.geomspace(0.5, 1e4, 15)
    td, tn = spectrum.count_pair(pen, lams)
    pd = pen.with_kind("dirichlet")
    for i, lam in enumerate(lams):
        assert spectrum.dense_count_below(pd, float(lam)) == td[i]
        assert spectrum.dense_count_below(pen, float(lam)) == tn[i]


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
    scaled = forms.ResistanceNetwork(3, net.conductance * a, net.cell_mass)
    lams = np.geomspace(0.5, 1e5, 30)
    nd0, nn0 = spectrum.network_counts(net, lams)
    nd1, nn1 = spectrum.network_counts(scaled, a * lams)
    np.testing.assert_array_equal(nd0, nd1)
    np.testing.assert_array_equal(nn0, nn1)


def test_counts_independent_of_plot_constant():
    # c enters coordinates only; counting output is byte-identical
    casc = CascadeTree.sample(4, seed=6)
    table = cascade.perturbations(casc, 6)
    lams = np.geomspace(0.5, 1e5, 40)
    from crt_spectra.dendrite import ContractionSystem, DendriteGraph

    out = []
    for c in (0.2, 0.4):
        g = DendriteGraph.build(4, ContractionSystem(c))
        net = forms.assemble(g, casc, table)
        out.append(spectrum.network_counts(net, lams))
    np.testing.assert_array_equal(out[0][0], out[1][0])
    np.testing.assert_array_equal(out[0][1], out[1][1])


# -- Dirichlet floor ---------------------------------------------------------------


def test_dirichlet_floor_debug_against_dense():
    net = debug_network(1)
    pen = Pencil.from_network(net, "dirichlet")
    dense = spectrum.dense_eigenvalues(pen)
    floor = spectrum.dirichlet_floor(net)
    assert abs(floor - dense[0]) < 1e-8 * dense[0]


def test_dirichlet_floor_diameter_bound():
    for seed in range(20):
        net = small_network(4, seed=seed)
        spectrum.dirichlet_floor(net, diameter=forms.diameter(net))  # raises on violation


def test_floor_scaling_in_mass():
    net = small_network(3, seed=9)
    pen = Pencil.from_network(net, "dirichlet")
    floor = spectrum.dirichlet_floor(pen)
    heavy = Pencil(pen.edge_u, pen.edge_v, pen.edge_c, pen.mass * 4.0, pen.boundary, "dirichlet")
    floor4 = spectrum.dirichlet_floor(heavy)
    assert abs(floor4 * 4.0 / floor - 1.0) < 1e-9


# -- bracketing and eta ----------------------------------------------------------------


def test_bracketing_trivial_below_floor():
    net = small_network(3, seed=11)
    floor = spectrum.dirichlet_floor(net)
    rep = spectrum.bracketing_check(net, np.array([0.5 * floor]))[0]
    assert rep.sub_dirichlet == 0 and rep.full_dirichlet == 0
    assert rep.full_neumann >= 1 and rep.chain_ok and rep.gap_ok


def test_bracketing_exact_chains():
    lams = np.geomspace(1.0, 1e6, 50)
    for seed in range(5):
        net = small_network(5, seed=seed + 40)
        for rep in spectrum.bracketing_check(net, lams):
            assert rep.chain_ok, rep
            assert rep.gap_ok, rep


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
    net = small_network(4, seed=71)
    ts = np.linspace(-1.0, 10.0, 80)
    np.testing.assert_array_equal(
        spectrum.eta_many(net, ts, "embedded"), spectrum.eta_many(net, ts, "fresh")
    )
    with pytest.raises(ValueError):
        spectrum.eta_many(net, ts, "nope")


def test_evolution_identity_exact():
    for seed in (5, 6):
        net = small_network(5, seed=seed)
        ts = np.linspace(-1.0, 11.0, 40)
        np.testing.assert_array_equal(spectrum.evolution_identity_gap(net, ts), 0)


def test_telescoping_identity_exact():
    net = small_network(5, seed=77)
    ts = np.linspace(0.0, 10.0, 9)
    for k in (1, 2, 3):
        np.testing.assert_array_equal(spectrum.telescoping_identity_gap(net, ts, k), 0)


# -- eigenvalue extraction ---------------------------------------------------------------


def test_eigenvalues_level0():
    net = small_network(0, seed=21)
    r = net.perturbations.value_at(Address())
    pen = Pencil.from_network(net, "neumann")
    top = 4.0 * HEIGHT_CONSTANT / r
    eigs = spectrum.eigenvalues_up_to(pen, 1.5 * top, tol=1e-10)
    np.testing.assert_allclose(eigs, [0.0, top], atol=1e-9)


def test_eigenvalues_match_debug_dense():
    # well-conditioned problem: the dense oracle is accurate here
    net = debug_network(3)
    pen = Pencil.from_network(net, "neumann")
    dense = spectrum.dense_eigenvalues(pen)
    lam_max = float(dense[-1] * 1.01)
    fast = spectrum.eigenvalues_up_to(pen, lam_max, tol=1e-8 * lam_max)
    assert fast.shape[0] == dense.shape[0]
    np.testing.assert_allclose(fast[1:], dense[1:], rtol=1e-6)


def test_eigenvalues_match_random_dense_scale_aware():
    # random cascades are badly conditioned: eigvalsh carries an absolute
    # error of order eps * lambda_max, so compare with a mixed tolerance
    net = small_network(4, seed=23)
    pen = Pencil.from_network(net, "neumann")
    dense = spectrum.dense_eigenvalues(pen)
    lam_max = float(dense[30] * 1.0001)
    fast = spectrum.eigenvalues_up_to(pen, lam_max, tol=1e-9 * lam_max)
    dsel = dense[dense <= lam_max * (1 + 1e-12)]
    assert fast.shape[0] == dsel.shape[0]
    tol = 1e-6 * np.abs(dsel) + 1e-12 * float(dense[-1])
    assert (np.abs(fast - dsel) <= tol).all()


def test_eigenvalues_consistent_with_counts():
    net = small_network(3, seed=25)
    pen = Pencil.from_network(net, "dirichlet")
    eigs = spectrum.eigenvalues_up_to(pen, 500.0, tol=1e-9)
    assert (np.diff(eigs) >= 0).all()
    for lam in (0.5, 5.0, 50.0, 499.0):
        assert (eigs <= lam).sum() == spectrum.count_below(pen, lam)


def test_eigenvalues_cap():
    net = small_network(3, seed=26)
    pen = Pencil.from_network(net, "neumann")
    with pytest.raises(CapacityError):
        spectrum.eigenvalues_up_to(pen, 1e12, tol=1.0, cap=5)


# -- heat traces ----------------------------------------------------------------------


def test_heat_trace_limits():
    eigs = np.array([0.0, 2.0, 5.0])
    big, _ = spectrum.heat_trace(eigs, 1e3)
    assert abs(big - 1.0) < 1e-12  # Neumann: only the kernel survives
    small_d, _ = spectrum.heat_trace(np.array([2.0, 5.0]), 1e3)
    assert small_d < 1e-100  # Dirichlet: everything decays


def test_heat_trace_remainder_guard():
    eigs = np.array([0.0, 1.0])
    val, bound = spectrum.heat_trace(eigs, 0.5, lam_max=10.0, n_above=100)
    assert bound == pytest.approx(100 * np.exp(-5.0))
    with pytest.raises(TruncationError):
        spectrum.heat_trace(eigs, 0.5, lam_max=10.0, n_above=100, max_remainder=1e-6)


def test_trace_from_curve_matches_exact_list():
    net = small_network(3, seed=29)
    pen = Pencil.from_network(net, "neumann")
    eigs = spectrum.dense_eigenvalues(pen)
    lams = np.geomspace(1e-2, 10 * eigs[-1], 400)
    _, nn = spectrum.network_counts(net, lams)
    for t in (1e-4, 1e-3, 1e-2):
        exact = float(np.exp(-np.clip(eigs, 0, None) * t).sum())
        approx, bound = spectrum.trace_from_curve(lams, nn, t, net.n_vertices)
        assert abs(approx - exact) <= bound + 1e-9 * exact
        assert abs(approx / exact - 1.0) < 0.02


def test_gamma_reference_values():
    import math

    assert math.gamma(2.0) == 1.0
    assert abs(math.gamma(0.5) - np.sqrt(np.pi)) < 1e-15
    assert abs(math.gamma(5.0 / 3.0) - 0.90275) < 5e-6
