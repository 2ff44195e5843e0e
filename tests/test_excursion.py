import numpy as np
import pytest

from crt_spectra import excursion

import excursion_oracle
from conftest import tent_path
from excursion_oracle import DegenerateSplit, value_at


# -- sampling ------------------------------------------------------------------


def test_sample_minimal_grid():
    for seed in range(5):
        p = excursion.sample_excursion(2, seed)
        assert p.values[0] == 0.0 and p.values[2] == 0.0
        assert p.values[1] > 0.0


def test_sample_rejects_tiny():
    with pytest.raises(ValueError):
        excursion.sample_excursion(1, 0)


def test_sample_deterministic():
    a = excursion.sample_excursion(512, 42)
    b = excursion.sample_excursion(512, 42)
    np.testing.assert_array_equal(a.values, b.values)


def test_sample_positive_and_tail():
    sups = []
    for seed in range(400):
        p = excursion.sample_excursion(4096, seed)
        assert (p.values[1:-1] > 0).all()
        sups.append(p.values.max())
    sups = np.asarray(sups)
    # sup of the normalized excursion: P(sup > 3) is ~1e-6, bound 0.02
    assert (sups > 3.0).mean() < 0.02


def test_sample_mean_height_of_uniform_point():
    # the height of a uniformly chosen time has mean sqrt(pi/8)
    rng = np.random.default_rng(7)
    vals = []
    for seed in range(800):
        p = excursion.sample_excursion(8192, seed)
        vals.append(p.values[rng.integers(1, 8192)])
    err = abs(np.mean(vals) - np.sqrt(np.pi / 8.0))
    assert err < 0.025, err


# -- distance -------------------------------------------------------------------


def test_distance_trivial_cases(tent):
    for s in (0.0, 0.17, 0.5, 0.93, 1.0):
        assert excursion_oracle.excursion_distance(tent, s, s) == 0.0
    for t in (0.1, 0.33, 0.72):
        d = excursion_oracle.excursion_distance(tent, 0.0, t)
        assert abs(d - value_at(tent, t)) < 1e-15


def test_distance_tent_value(tent):
    d = excursion_oracle.excursion_distance(tent, 0.3, 0.7)
    assert abs(d - 16.0 / 15.0) < 1e-12
    assert excursion_oracle.excursion_distance(tent, 0.7, 0.3) == d


def test_distance_range_check(tent):
    with pytest.raises(ValueError):
        excursion_oracle.excursion_distance(tent, -0.1, 0.5)
    with pytest.raises(ValueError):
        excursion_oracle.excursion_distance(tent, 0.0, 1.5)


def test_distance_pseudo_metric_axioms():
    p = excursion.sample_excursion(2048, 11)
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.01, 0.99, size=(300, 3))
    for a, b, c in ts:
        dab = excursion_oracle.excursion_distance(p, a, b)
        dba = excursion_oracle.excursion_distance(p, b, a)
        assert dab == dba
        dac = excursion_oracle.excursion_distance(p, a, c)
        dcb = excursion_oracle.excursion_distance(p, c, b)
        assert dab <= dac + dcb + 1e-12


# -- markers ---------------------------------------------------------------------


def test_markers_tent(tent):
    h, hm, hp = excursion_oracle.split_markers(tent, 0.3, 0.7)
    assert (h, hm, hp) == (0.5, 0.06, 0.95)


def test_markers_outer_pair_keeps_structure(tent):
    # near the outer crossings the argmin stays the global one; the spec's
    # literal pair (0.06, 0.95) sits exactly on the degenerate set where the
    # level is attained at u itself, so probe just inside
    h, hm, hp = excursion_oracle.split_markers(tent, 0.065, 0.945)
    assert h == 0.5
    assert abs(hm - 0.06) < 1e-12 and abs(hp - 0.95) < 1e-12


def test_markers_monotone_interval_gives_right_endpoint(tent):
    # f decreasing on [0.25, 0.45]: infimum at the right endpoint
    h, _, _ = excursion_oracle.split_markers(tent, 0.25, 0.45)
    assert h == 0.45


def test_markers_mirror(tent):
    assert excursion_oracle.split_markers(tent, 0.7, 0.3) == excursion_oracle.split_markers(tent, 0.3, 0.7)


def test_markers_reject_equal():
    p = tent_path()
    with pytest.raises(DegenerateSplit):
        excursion_oracle.split_markers(p, 0.4, 0.4)


# -- decomposition ----------------------------------------------------------------


def test_decompose_tent_masses(tent):
    sr = excursion_oracle.decompose(tent, 0.3, 0.7)
    masses = np.array([sr.masses.d1, sr.masses.d2, sr.masses.d3])
    np.testing.assert_allclose(masses, [0.11, 0.44, 0.45], atol=1e-12)
    assert abs(masses.sum() - 1.0) <= 1e-12
    assert abs(sr.uniforms[1] - (0.3 - 0.06) / 0.44) < 1e-12
    assert abs(sr.uniforms[2] - (0.7 - 0.5) / 0.45) < 1e-12


def test_decompose_marker_gaps_match_masses():
    p = excursion.sample_excursion(4096, 17)
    sr = excursion_oracle.decompose(p, 0.31, 0.77)
    h, hm, hp = sr.markers
    assert sr.masses.d2 == h - hm
    assert sr.masses.d3 == hp - h


def test_decompose_mirror_swaps_inner_pieces(tent):
    a = excursion_oracle.decompose(tent, 0.3, 0.7)
    b = excursion_oracle.decompose(tent, 0.7, 0.3)
    assert b.masses.d2 == a.masses.d3
    assert b.masses.d3 == a.masses.d2
    np.testing.assert_array_equal(b.pieces[1].values, a.pieces[2].values)
    np.testing.assert_array_equal(b.pieces[2].values, a.pieces[1].values)


def test_decompose_pieces_are_excursions():
    for seed in (1, 2, 3):
        p = excursion.sample_excursion(4096, seed)
        rng = np.random.default_rng(seed + 100)
        sr = excursion_oracle.decompose(p, rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        for piece in sr.pieces:
            assert len(piece.values) == len(p.values)
            assert piece.values[0] == 0.0 and piece.values[-1] == 0.0
            assert (piece.values[1:-1] > 0.0).all()


def test_decompose_degenerate_split(tent):
    with pytest.raises(DegenerateSplit):
        # markers hug the downslope: the u-piece spans under two grid cells
        excursion_oracle.decompose(tent, 0.205, 0.209)


@pytest.mark.slow
def test_decompose_dirichlet_statistics():
    # Dirichlet(1/2,1/2,1/2) marginal is Beta(1/2,1): mean 1/3, second
    # moment 1/5, distribution function sqrt(x); Monte-Carlo oracle
    rng = np.random.default_rng(5)
    masses = []
    attempt = 0
    while len(masses) < 800:
        p = excursion.sample_excursion(2**12, 9000 + attempt)
        u, v = rng.uniform(0.0, 1.0, size=2)
        attempt += 1
        try:
            masses.append(excursion_oracle.branch_masses(p, u, v))
        except DegenerateSplit:
            continue
    n = len(masses)
    masses = np.asarray(masses)
    for j in range(3):
        assert abs(masses[:, j].mean() - 1.0 / 3.0) < 0.02
        assert abs((masses[:, j] ** 2).mean() - 0.2) < 0.02
    # Kolmogorov-Smirnov distance of the first component to sqrt(x)
    x = np.sort(masses[:, 0])
    emp = np.arange(1, n + 1) / n
    ks = np.max(np.abs(emp - np.sqrt(x)))
    assert ks < 0.07


# -- reduced trees -----------------------------------------------------------------


def test_spanned_tree_single_leaf(tent):
    tr = excursion.spanned_tree(tent, np.array([61]))
    assert tr.n_vertices == 2
    assert abs(tr.edge_len[1] - value_at(tent, 0.61)) < 1e-15
    assert abs(tr.mass.sum() - 1.0) < 1e-9


def test_spanned_tree_two_leaves_y_shape(tent):
    tr = excursion.spanned_tree(tent, np.array([30, 70]))
    assert tr.n_vertices == 4
    depth = excursion_oracle.depth_from_root(tr)
    # branch point at depth (d(0,.3)+d(0,.7)-d(.3,.7))/2 = 0.3
    assert abs(depth[2] - 0.3) < 1e-12
    assert abs(depth[1] - 23.0 / 30.0) < 1e-12
    assert abs(depth[3] - 0.9) < 1e-12
    d = excursion_oracle.excursion_distance(tent, 0.3, 0.7)
    assert abs(excursion_oracle.tree_distance(tr, 1, 3) - d) < 1e-12


def test_reduced_tree_masses_partition():
    p = excursion.sample_excursion(4096, 23)
    for k in (1, 5, 40):
        tr = excursion.reduced_tree(p, k, seed=k)
        assert abs(tr.mass.sum() - 1.0) < 1e-9
        assert (tr.edge_len[1:] > 0).all()


@pytest.mark.parametrize("lattice", [False, True], ids=["gaussian", "lattice"])
@pytest.mark.parametrize("log_n", range(3, 13))
def test_spanned_tree_matches_oracle(log_n, lattice):
    # the insertion-scan builder and the per-vertex projection, bit for bit;
    # lattice paths tie meets, branch depths and projection distances exactly
    n = 2**log_n
    path = excursion_oracle.lattice_path(n, log_n) if lattice else excursion.sample_excursion(n, log_n)
    rng = np.random.default_rng(log_n + 100 * lattice)
    for k in (1, n - 1, int(rng.integers(1, n))):
        leaves = rng.choice(n - 1, size=k, replace=False) + 1
        got = excursion.spanned_tree(path, leaves)
        want = excursion_oracle.spanned_tree(path, leaves)
        for name in ("parent", "edge_len", "mass", "time_idx", "lump_extent"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=f"k={k} {name}")


def test_insertion_neighbours_match_a_scan():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 8, 200):
        order = np.argsort(rng.integers(0, 20, size=k), kind="stable")  # repeated times
        pos = np.argsort(order)
        before, after = excursion._insertion_neighbours(order)
        for j in range(k):
            earlier = pos[:j]
            assert before[j] == max(earlier[earlier < pos[j]], default=-1)
            assert after[j] == min(earlier[earlier > pos[j]], default=k)


def _assert_same_tree(got, want, what):
    for name in ("parent", "edge_len", "mass", "time_idx", "lump_extent"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=f"{what} {name}")


@pytest.mark.parametrize("lattice", [False, True], ids=["gaussian", "lattice"])
def test_spanned_tree_orders_and_repeated_times(lattice):
    # repeated leaf times make zero-length segments between time-sorted
    # leaves; sorted and reverse-sorted insertion put every neighbour on one side
    n = 256
    path = excursion_oracle.lattice_path(n, 7) if lattice else excursion.sample_excursion(n, 7)
    rng = np.random.default_rng(7)
    distinct = rng.choice(n - 1, size=60, replace=False) + 1
    repeated = rng.integers(1, n, size=300)
    for what, leaves in (
        ("k=2", distinct[:2]),
        ("k=2 equal", np.array([distinct[0]] * 2)),
        ("sorted", np.sort(distinct)),
        ("reverse-sorted", np.sort(distinct)[::-1]),
        ("repeated", repeated),
        ("repeated sorted", np.sort(repeated)),
        ("repeated reverse-sorted", np.sort(repeated)[::-1]),
    ):
        _assert_same_tree(excursion.spanned_tree(path, leaves), excursion_oracle.spanned_tree(path, leaves), what)


def test_spanned_tree_meet_vertex_target():
    # leaves 5 and 8 meet at depth 3, first attained at time 6; leaf 4 sits
    # at depth 3 and lands on that meet vertex. Leaf 1's only time neighbour
    # is leaf 4, and it meets it deeper, at depth 2: the new branch vertex
    # takes its first argmin on [1, 4], from the leaf's time, not on [1, 6],
    # from the vertex's; both give time 2
    path = excursion.ExcursionPath(np.array([0.0, 5, 2, 4, 3, 4, 3, 5, 6, 5, 0]))
    leaves = np.array([5, 8, 4, 1])
    near, meet, first = excursion._nearest_meets(path.values, leaves)
    assert (near[-1], meet[-1], first[-1]) == (2, 2.0, 2)
    got = excursion.spanned_tree(path, leaves)
    np.testing.assert_array_equal(got.time_idx, [0, 5, 6, 8, 2, 1])  # no vertex at time 4
    _assert_same_tree(got, excursion_oracle.spanned_tree(path, leaves), "meet vertex target")


def test_spanned_tree_at_scale():
    # 2^20 steps and 10^4 leaves: about 10^10 element operations for an
    # insertion scan, well under a second here
    path = excursion.sample_excursion(2**20, 4)
    leaves = np.random.default_rng(4).choice(2**20 - 1, size=10_000, replace=False) + 1
    tree = excursion.spanned_tree(path, leaves)
    assert abs(tree.mass.sum() - 1.0) < 1e-9
    assert (tree.edge_len[1:] > 0).all()
    assert np.isin(leaves, tree.time_idx).all()
    assert (tree.lump_extent >= 0).all()
    # edge lengths are height differences, so summed depths agree to rounding
    np.testing.assert_allclose(excursion_oracle.depth_from_root(tree), path.values[tree.time_idx], rtol=0, atol=1e-12)


def test_reduced_tree_rejects_bad_k():
    p = excursion.sample_excursion(64, 3)
    with pytest.raises(ValueError):
        excursion.reduced_tree(p, 0, seed=1)
    with pytest.raises(ValueError):
        excursion.reduced_tree(p, 64, seed=1)


# -- validation ---------------------------------------------------------------------


def test_path_validation():
    with pytest.raises(ValueError):
        excursion.ExcursionPath(np.array([0.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        excursion.ExcursionPath(np.array([0.1, 1.0, 0.0]))
