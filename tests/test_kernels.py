"""Kernel checks: RNG reference values, the shift-blocked counting sweep
against one sweep per shift (in whole stages and in the column tiles of
fused rounds), which rounds the schedule builders fuse, its
zero-pivot guard, its last interior pivot against a dense inverse, and the
projection against a brute-force oracle.

The counts themselves are checked against the dense solver in test_spectrum.
"""

import numpy as np
import pytest

from crt_spectra import _kernels, excursion, forms, spectrum
from crt_spectra.cascade import CascadeTree
from crt_spectra.dendrite import structure
from crt_spectra.spectrum import Pencil
from conftest import small_network
from excursion_oracle import gap_minima, lattice_path
from spectrum_oracle import dense_count_pair, dense_matrices, inertia_counts_per_shift, network_pencil, scatter_targets


def test_mix64_reference_values():
    # state 0 gives the published first splitmix64 output; the second value
    # is frozen as a regression guard
    assert int(_kernels.mix64(np.uint64(0))) == 0xE220A8397B1DCDAF
    assert int(_kernels.mix64(np.uint64(1))) == 0x910A2DEC89025CC1


def test_unit_open_interval():
    x = _kernels.mix64(np.arange(10_000, dtype=np.uint64))
    u = _kernels._unit_open(x)
    assert (u > 0).all() and (u < 1).all()


def test_triples_deterministic_and_vector_scalar_match():
    key = _kernels.derive_key(5, 77)
    codes = np.arange(64, dtype=np.uint64)
    t1 = _kernels.dirichlet_half_triples(key, codes)
    t2 = _kernels.dirichlet_half_triples(key, codes)
    np.testing.assert_array_equal(t1, t2)
    one = _kernels.dirichlet_half_triples(key, codes[7:8])
    np.testing.assert_array_equal(one[0], t1[7])


def test_degenerate_triples_are_redrawn(monkeypatch):
    # z rounding to 1 zeroes two components; only that row is redrawn, from the next salt
    draw = _kernels._archimedes
    key, codes = _kernels.derive_key(5, 77), np.arange(8, dtype=np.uint64)

    def degenerate_at_salt_0(k, c, salt):
        t = draw(k, c, salt)
        if salt == 0:
            t[3] = (0.0, 0.0, 1.0)
        return t

    monkeypatch.setattr(_kernels, "_archimedes", degenerate_at_salt_0)
    t = _kernels.dirichlet_half_triples(key, codes)
    clean = draw(key, codes, 0)
    np.testing.assert_array_equal(np.delete(t, 3, axis=0), np.delete(clean, 3, axis=0))
    np.testing.assert_array_equal(t[3], draw(key, codes[3:4], 1)[0])


def test_nearest_vertex_matches_brute_force():
    # integer heights: some grid times sit exactly midway between a vertex
    # and its parent, so the lowest-number tie rule decides the owner
    path = lattice_path(2**9, 1)
    tree = excursion.reduced_tree(path, 20, seed=1)
    f, tv = path.values, tree.time_idx
    # d(i, v) = f(i) + f(t_v) - 2 min f over [i, t_v], one slice minimum per pair
    dist = np.empty((f.shape[0], tv.shape[0]))
    for i in range(f.shape[0]):
        for v, t in enumerate(tv):
            lo, hi = min(i, t), max(i, t)
            dist[i, v] = f[i] + f[t] - 2.0 * f[lo : hi + 1].min()
    best = dist.min(axis=1, keepdims=True)
    child = np.arange(1, tree.n_vertices)
    tied = (dist[:, child] == best) & (dist[:, tree.parent[child]] == best)
    assert tied.any()
    owner, proj = _kernels.nearest_vertex(f, tv, tree.parent)
    np.testing.assert_array_equal(owner, dist.argmin(axis=1))  # argmin: ties to the lowest vertex
    np.testing.assert_array_equal(proj, dist.min(axis=1))
    with pytest.raises(ValueError, match="rooted"):
        _kernels.nearest_vertex(f, tv[1:], tree.parent[1:] - 1)


@pytest.mark.parametrize("lattice", [False, True], ids=["float", "lattice"])
def test_gap_minima_match_the_per_gap_scan(lattice):
    # one gap, gaps of length 1 (a run of adjacent vertex times), a last gap
    # of length 1 and of length > 1, and random gaps; lattice heights tie
    n = 257
    values = lattice_path(n, 5).values if lattice else excursion.sample_excursion(n, 5).values
    rng = np.random.default_rng(5)
    cases = [
        np.array([0]),
        np.arange(n + 1),
        np.array([0, 1, 2, 3, 40, 41, 200, n]),
        np.array([0, 17, 18, 100, n - 3]),
        np.concatenate(([0], np.sort(rng.choice(np.arange(1, n), 60, replace=False)))),
    ]
    for lo in cases:
        got, want = _kernels._gap_minima(values, lo), gap_minima(values, lo)
        for g, w, name in zip(got, want, ("forward", "backward")):
            np.testing.assert_array_equal(g, w, err_msg=f"{name} minima, {lo.shape[0]} gaps")
    if lattice:  # equal heights inside a gap, so the minima tie exactly
        assert (np.diff(values) == 0).any()


# -- shift-blocked counting sweep ---------------------------------------------------


def _path_pencil(n: int = 256) -> Pencil:
    # each vertex between two compressed ones is b for one and a for the other
    rng = np.random.default_rng(4)
    return Pencil(np.arange(n - 1), np.arange(1, n), rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n), (0, n - 1))


def _pencils():
    for depth in range(9):
        net = small_network(depth, seed=depth)
        yield f"random-{depth}", net.schedule, net.vertex_mass, net.conductance
        net = forms.assemble(depth, CascadeTree.debug(depth).base_lengths, np.ones(3**depth))
        yield f"debug-{depth}", net.schedule, net.vertex_mass, net.conductance
    # 200 leaves: both first rounds rake more than 64 leaves, and the gaussian
    # tree's compresses more than 64 vertices whose a and b targets meet; no
    # round of either is fused, so every stage runs whole
    for name, path in (("gaussian", excursion.sample_excursion(4096, 3)), ("lattice", lattice_path(4096, 5))):
        pen = Pencil.from_tree(excursion.reduced_tree(path, 200, seed=1))
        yield name, pen.schedule, pen.mass, pen.edge_c
    pen = _path_pencil()
    yield "path", pen.schedule, pen.mass, pen.edge_c
    # a final round that rakes its leaf into a boundary vertex and compresses none
    pen = Pencil(np.array([0, 0]), np.array([1, 2]), np.array([2.0, 3.0]), np.array([0.3, 0.3, 0.4]), (0, 1))
    yield "rake-only", pen.schedule, pen.mass, pen.edge_c


def _stage_sizes(sched) -> list[tuple[int, int, bool]]:
    # (raked leaves, compressed vertices, fused) per round
    ids = np.arange(sched.n_vertices)
    return [(ids[r[0]].shape[0], ids[r[3]].shape[0], r[8]) for r in sched.rounds]


def _disjoint(rnd) -> bool:
    # no vertex is both an a and a b target of the round, read off its scatter plan
    a, b = np.split(scatter_targets(rnd[7]), 2)
    return not np.isin(a, b).any()


@pytest.mark.parametrize("block_bytes", [_kernels._SHIFT_BLOCK_BYTES, 2048], ids=["budget", "64-column-tiles"])
def test_blocked_counts_match_one_sweep_per_shift(monkeypatch, block_bytes):
    # grids of length 0, 1, w - 1, w and w + 1 for the pencil's width w, drawn
    # unsorted and with repeats from values that include negatives and 0; the
    # one-shift oracle runs once per distinct value. A 2 KiB budget cuts the
    # stages of fused rounds into tiles of 64 columns at width 1: every
    # dendrite from depth 5 on splits a stage, while both excursion trees and
    # the path, whose rounds are not fused, run stages wider than that whole
    monkeypatch.setattr(_kernels, "_SHIFT_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(0)
    values = np.concatenate(([-3.0, -1e-300, 0.0, -0.0, 1e-300], np.geomspace(0.25, 1e6, 48)))
    split, whole = set(), set()
    cols = block_bytes // 32  # at width 1
    for name, sched, mass, conduct in _pencils():
        sizes = _stage_sizes(sched)
        if sched.block_width == 1 and any(fused and max(n_leaf, n_mid) > cols for n_leaf, n_mid, fused in sizes):
            split.add(name)
        if sched.block_width == 1 and any(not fused and max(n_leaf, n_mid) > cols for n_leaf, n_mid, fused in sizes):
            whole.add(name)
        w = sched.block_width
        ref = inertia_counts_per_shift(sched, mass, conduct, values)
        for n in sorted({0, 1, w - 1, w, w + 1}):
            pick = rng.integers(0, values.shape[0], size=n)
            got = _kernels.inertia_counts(sched, mass, conduct, values[pick])
            assert len(got) == len(ref) == 4
            for kind, out, want in zip(("dirichlet", "neumann", "final", "pivot"), got, ref):
                assert out.dtype == (np.float64 if kind == "pivot" else np.int64)
                np.testing.assert_array_equal(out, want[pick], err_msg=f"{name}, {n} shifts, {kind}")
    if block_bytes == 2048:
        want_split = {f"{kind}-{d}" for kind in ("random", "debug") for d in range(5, 9)}
        assert split == want_split and whole == {"gaussian", "lattice", "path"}
    else:
        assert not split


def test_tiles_keep_each_vertex_term_order(monkeypatch):
    # every path vertex between two compressed ones gets a b term and an a
    # term; in one-column tiles the b term would come first, and from the
    # second round on, where acc is no longer 0, the sums would differ in the
    # last bits. Such a round is not fused, so its stages run whole
    monkeypatch.setattr(_kernels, "_SHIFT_BLOCK_BYTES", 32)
    pen = _path_pencil()
    assert not any(r[8] or _disjoint(r) for r in pen.schedule.rounds[1:4])
    lams = np.geomspace(0.25, 1e6, 48)
    got = _kernels.inertia_counts(pen.schedule, pen.mass, pen.edge_c, lams)
    for out, want in zip(got, inertia_counts_per_shift(pen.schedule, pen.mass, pen.edge_c, lams)):
        np.testing.assert_array_equal(out, want)


def test_zero_pivot_is_counted_and_guarded():
    # leaf 3's conductance is lambda (1 + NUDGE) m, so its pivot c - lambda (1 + NUDGE) m
    # is exactly 0: counted as nonpositive, then replaced by -_ZERO_PIVOT, so
    # the term c h / p it sends its target is c**2 / _ZERO_PIVOT
    lam, m3 = 2.0, 0.25
    lam_eff = lam * (1.0 + _kernels.NUDGE)
    c3 = lam_eff * m3
    mass = np.array([0.3, 0.3, 0.5, m3])
    pen = Pencil(np.array([3, 2, 2]), np.array([2, 0, 1]), np.array([c3, 1.0, 2.0]), mass, (0, 1))
    sched = pen.schedule
    assert len(sched.rounds) == 1 and sched.rounds[0][8]  # rake 3 into 2, then compress 2
    assert c3 - lam_eff * m3 == 0.0
    for lams in (np.array([lam]), np.array([0.5 * lam, lam, 3.0 * lam])):
        got = _kernels.inertia_counts(sched, mass, pen.edge_c, lams)
        for out, want in zip(got, inertia_counts_per_shift(sched, mass, pen.edge_c, lams)):
            np.testing.assert_array_equal(out, want)
        at = int(np.flatnonzero(lams == lam)[0])
        y = c3 * (-(lam_eff * m3)) / -_kernels._ZERO_PIVOT
        pivot2 = (1.0 + 2.0) + (y - lam_eff * mass[2])
        assert got[3][at] == pivot2 and pivot2 > 1e28  # vertex 2's pivot takes the guarded term
        assert got[2][at] == 1 and got[0][at] == 1  # the zero pivot counts, vertex 2's does not


def test_dendrite_rounds_are_fused_and_disjoint():
    # every round rakes its tips into its midpoints in the same order, and no
    # vertex takes both an a and a b term; a sweep zeroes the vertices left
    # after the first round and copies no edge conductance into g
    for level in range(1, 11):
        sched = structure(level)
        assert all(r[8] and _disjoint(r) for r in sched.rounds), level
        assert sched.acc_live == 3 ** (level - 1) + 1 and sched.g_live == 0, level


def test_a_vertex_with_an_a_and_a_b_term_is_not_disjoint():
    # on the path 0 - 2 - 3 - 4 - 1, vertex 3 has the lowest mix64 priority, so
    # 2 and 4 are compressed together: 3 is b for 2 (through 2's higher slot)
    # and a for 4 (through 4's lower slot)
    priority = {v: int(_kernels.mix64(np.uint64(v))) for v in (2, 3, 4)}
    assert priority[3] < min(priority[2], priority[4])
    sched = _kernels.contraction_schedule(np.array([0, 2, 3, 4]), np.array([2, 3, 4, 1]), 5, 0, 1)
    _, _, _, mid, _, _, _, scatter, fused = sched.rounds[0]
    a, b = np.split(scatter_targets(scatter), 2)
    assert np.arange(5)[mid].tolist() == [2, 4] and a.tolist() == [0, 3] and b.tolist() == [3, 1]
    assert not fused and not _disjoint(sched.rounds[0])


def test_generic_builder_does_not_fuse_a_round_whose_a_and_b_targets_meet(monkeypatch):
    # the same path with leaf 5 on 2 and leaf 6 on 4: the first round rakes
    # them into its compressed vertices [2, 4], in order, but 3 is b for 2 and
    # a for 4, so the round is not fused; at a one-column budget its stages
    # run whole and every output matches one sweep per shift
    u, v = np.array([0, 2, 3, 4, 2, 4]), np.array([2, 3, 4, 1, 5, 6])
    rng = np.random.default_rng(12)
    pen = Pencil(u, v, rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 7), (0, 1))
    leaf, rake, _, mid, _, _, _, scatter, fused = pen.schedule.rounds[0]
    ids = np.arange(7)
    assert ids[leaf].tolist() == [5, 6] and scatter_targets(rake).tolist() == ids[mid].tolist() == [2, 4]
    assert np.split(scatter_targets(scatter), 2)[1].tolist() == [3, 1]
    assert not fused and not _disjoint(pen.schedule.rounds[0])
    monkeypatch.setattr(_kernels, "_SHIFT_BLOCK_BYTES", 32)
    assert pen.schedule.block_width == 1 and _kernels._SHIFT_BLOCK_BYTES // 32 == 1  # one column per tile
    lams = np.geomspace(0.05, 50.0, 40)
    got = _kernels.inertia_counts(pen.schedule, pen.mass, pen.edge_c, lams)
    for out, want in zip(got, inertia_counts_per_shift(pen.schedule, pen.mass, pen.edge_c, lams)):
        np.testing.assert_array_equal(out, want)


def test_block_width_fits_the_budget():
    scheds = [structure(d) for d in (0, 4, 8, 10)]
    scheds += [Pencil.from_tree(excursion.reduced_tree(excursion.sample_excursion(4096, 3), 60, seed=1)).schedule]
    for sched in scheds:
        w, column = sched.block_width, 8 * (sched.n_vertices + sched.n_slots)
        assert w >= 1
        assert w * column <= _kernels._SHIFT_BLOCK_BYTES or w == 1
        assert (w + 1) * column > _kernels._SHIFT_BLOCK_BYTES
    assert structure(10).block_width == 1


def _last_interior_vertex(sched) -> int:
    # the final round's last compressed vertex, or its last raked leaf if it compresses none
    leaf, _, _, mid = sched.rounds[-1][:4]
    ids = np.arange(sched.n_vertices)
    return int((ids[mid] if ids[mid].shape[0] else ids[leaf])[-1])


@pytest.mark.parametrize("block_bytes", [_kernels._SHIFT_BLOCK_BYTES, 1])
def test_last_interior_pivot_is_the_schur_complement(monkeypatch, block_bytes):
    # below the floor and where exactly one eigenvalue lies below the shift (the
    # dense Sylvester count certifies both), the pivot is 1 / [(L_D - lambda M_D)**-1]_vv;
    # the dense inverse itself loses about 6e-9 to conditioning at depth 6
    monkeypatch.setattr(_kernels, "_SHIFT_BLOCK_BYTES", block_bytes)
    for depth in range(1, 7):
        debug = forms.assemble(depth, CascadeTree.debug(depth).base_lengths, np.ones(3**depth))
        for net in [small_network(depth, seed=seed) for seed in range(3)] + [debug]:
            v = _last_interior_vertex(net.schedule)
            assert v == 2  # the level-1 midpoint
            pen = network_pencil(net)
            floor = spectrum.dirichlet_floor(net, forms.diameter(net))
            grid = floor * np.geomspace(1.0, 100.0, 200)
            one = grid[spectrum.network_counts(net, grid)[0] == 1]
            lams = np.array([0.5 * floor, np.sqrt(one[0] * one[-1])])
            assert dense_count_pair(pen, lams)[0].tolist() == [0, 1]
            nd, _, pivots = spectrum.network_counts(net, lams, pivot=True)
            stiff, mass = dense_matrices(pen, True)
            j = v - 2  # dense_matrices drops the boundary vertices 0 and 1
            want = [1.0 / np.linalg.inv(stiff - np.diag(lam * (1.0 + _kernels.NUDGE) * mass))[j, j] for lam in lams]
            np.testing.assert_allclose(pivots, want, rtol=1e-7, err_msg=f"depth {depth}")
            assert pivots[0] > 0.0 and nd.tolist() == [0, 1]


# -- scatter plans ------------------------------------------------------------------


def _scatter_cases():
    # (name, vertices, plan, term sides): compress plans of random targets
    # with repeats, long upward runs (two sharing an end), a downward run and
    # a constant run, and of a path's and a dendrite's rounds; rake plans of
    # an excursion tree's first round and of a dendrite round's midpoints
    rng = np.random.default_rng(8)
    a = rng.integers(0, 5000, size=4000)
    a[100:900] = np.arange(1000, 2600, 2)
    a[899:1500] = np.arange(2598, 2598 + 3 * 601, 3)
    a[2000:2700] = np.arange(4000, 3300, -1)
    a[3000:3600] = 17
    b = rng.integers(0, 5000, size=4000)
    b[3300:] = np.arange(10, 710)
    yield "random", 5000, _kernels._scatter_plan(a, b), (a, b)
    n = 2**14
    path = _kernels.contraction_schedule(np.arange(n - 1), np.arange(1, n), n, 0, n - 1)
    for level, sched in (("path", path), ("dendrite-9", structure(9))):
        for i in (0, 1, len(sched.rounds) - 1):
            a, b = np.split(scatter_targets(sched.rounds[i][7]), 2)
            yield f"{level} round {i}", sched.n_vertices, _kernels._scatter_plan(a, b), (a, b)
    sched = Pencil.from_tree(excursion.reduced_tree(excursion.sample_excursion(2**14, 3), 1000, seed=1)).schedule
    t = scatter_targets(sched.rounds[0][1])
    assert t.shape[0] > 64 and np.unique(t).shape[0] == t.shape[0]  # one leaf per target
    yield "excursion round 0 rakes", sched.n_vertices, sched.rounds[0][1], (t,)
    sched = structure(9)
    for i in (0, 8):  # round i rakes level 8 - i's tips into its midpoints
        k = 3 ** (8 - i)
        yield f"dendrite-9 round {i} rakes", sched.n_vertices, sched.rounds[i][1], (np.arange(k + 1, 2 * k + 1),)


def test_scatter_plan_matches_add_at():
    # terms of 1e16 and 1 do not commute in floating point, so a plan that
    # reordered any vertex's terms would show; rows stand for a shift block.
    # Each side's terms are applied window by window, as a sweep's tiles cut
    # them, and every window lies within one side
    rng = np.random.default_rng(9)
    views = 0
    for name, nv, plan, sides in _scatter_cases():
        np.testing.assert_array_equal(scatter_targets(plan), np.concatenate(sides), err_msg=name)
        edges = np.cumsum([0] + [t.shape[0] for t in sides])
        for lo, hi, tgt in plan:
            assert np.searchsorted(edges, lo, "right") == np.searchsorted(edges, hi, "left"), name  # within a side
            if isinstance(tgt, slice):
                views += 1
                assert hi - lo >= _kernels._MIN_VIEW and tgt.step > 0
        for width in (1, 3):
            for cols in (1, 64, 700):
                acc = rng.choice([1e16, -1e16, 1.0, 0.5], size=(width, nv))
                ref = acc.copy()
                for idx, offset in zip(sides, edges):
                    y = rng.choice([1e16, -1e16, 1.0, 3.0], size=(width, idx.shape[0]))
                    for row in range(width):
                        np.add.at(ref[row], idx, y[row])
                    for lo in range(0, idx.shape[0], cols):
                        window = y[:, lo : lo + cols]
                        _kernels._scatter(acc.reshape(-1), _kernels._scatter_adds(acc, plan, window, offset + lo))
                np.testing.assert_array_equal(acc, ref, err_msg=f"{name}, width {width}, windows of {cols}")
    assert views >= 10
