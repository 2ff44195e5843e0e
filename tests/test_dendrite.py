import tracemalloc

import numpy as np
import pytest

from crt_spectra import _kernels, asymptotics, dendrite, forms, spectrum
from crt_spectra.cascade import CascadeTree, perturbations
from crt_spectra.errors import CapacityError

from cascade_oracle import Address
from dendrite_oracle import (
    ContractionSystem,
    DendriteGraph,
    address_order_diameter,
    address_order_network,
    address_ordinals,
    address_vertex_ids,
    apply_map,
    child_major_endpoints,
    apply_word,
    project,
    refine,
)


@pytest.fixture
def sys():
    return ContractionSystem(0.25)


def test_contraction_range():
    with pytest.raises(ValueError):
        ContractionSystem(0.5)
    with pytest.raises(ValueError):
        ContractionSystem(0.0)


def test_map_values(sys):
    assert apply_map(sys, 2, (1.0, 0.0)) == (1.0, 0.0)  # fixed point
    assert apply_map(sys, 1, (1.0, 0.0)) == (0.0, 0.0)
    assert apply_map(sys, 1, (0.0, 0.0)) == (0.5, 0.0)
    assert apply_map(sys, 3, (0.0, 0.0)) == (0.5, 0.0)
    assert apply_map(sys, 2, (0.0, 0.0)) == (0.5, 0.0)
    with pytest.raises(ValueError):
        apply_map(sys, 4, (0.0, 0.0))


def test_level_one_vertices(sys):
    g = DendriteGraph.build(1, sys)
    want = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.5, 0.25]])
    np.testing.assert_array_equal(g.coords, want)
    assert g.n_edges == 3


def test_counts_by_level():
    g = DendriteGraph.base()
    for level in range(0, 8):
        assert g.n_vertices == 3**level + 1
        assert g.n_edges == 3**level
        e0, e1 = g.edge_endpoints()
        # connected and acyclic: V = E + 1 and every vertex appears
        assert len(np.unique(np.concatenate([e0, e1]))) == g.n_vertices
        g = refine(g)


def test_children_share_only_midpoint():
    g = DendriteGraph.build(1)
    e0, e1 = g.edge_endpoints()
    ends = [set((int(e0[p]), int(e1[p]))) for p in range(3)]
    assert ends[0] & ends[1] == {2}
    assert ends[0] & ends[2] == {2}
    assert ends[1] & ends[2] == {2}


def test_identification_matches_coordinates():
    # combinatorial ids coincide exactly when coordinates do (c = 1/4)
    g = DendriteGraph.build(6, ContractionSystem(0.25))
    coords = g.coords
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    sc = coords[order]
    same = (np.abs(np.diff(sc, axis=0)) < 1e-12).all(axis=1)
    assert not same.any(), "distinct vertex ids share coordinates"


def test_structure_caching():
    a = dendrite.structure(5)
    b = dendrite.structure(5)
    assert a is b


def test_structure_keeps_vertex_ids_in_int32(monkeypatch):
    # the writer's endpoint ids are int32, so a budget set past them still
    # stops below 3**20 cells, before anything is built
    monkeypatch.setenv("CRT_SPECTRA_BUDGET", str(3**25))
    with pytest.raises(CapacityError, match=f"exceed budget {2**31 - 2}"):
        dendrite.structure(20)


def test_endpoint_convention():
    # cell k1 joins the midpoint to F_k(0,0), k2 to F_k(1,0), k3 to the tip
    g2 = DendriteGraph.build(2)
    e0, e1 = g2.edge_endpoints()
    e0p, e1p = child_major_endpoints(1)
    # child j of level-1 cell p is level-2 cell p + 3 (j - 1); p's midpoint and tip are 4 + p and 7 + p
    for parent in range(3):
        mid = 3 + 1 + parent
        assert e0[parent] == mid and e1[parent] == e0p[parent]
        assert e0[parent + 3] == mid and e1[parent + 3] == e1p[parent]
        assert e0[parent + 6] == mid and e1[parent + 6] == mid + 3


def test_project_fixed_point_word(sys):
    assert apply_word(sys, (2, 2, 2, 2), (1.0, 0.0)) == (1.0, 0.0)
    for depth in range(1, 12):
        p = project(sys, Address((2,) * depth), depth)
        assert abs(p[0] - 1.0) <= 2.0 ** -depth and p[1] == 0.0


def test_project_critical_words(sys):
    # the three words 112..., 212..., 312... all project to (1/2, 0)
    for first in (1, 2, 3):
        word = Address((first, 1) + (2,) * 8)
        x, y = project(sys, word, 10)
        assert abs(x - 0.5) < max(0.5, sys.c) ** 8
        assert abs(y) < max(0.5, sys.c) ** 8


def test_project_all_ones_converges(sys):
    # fixed point of the first map: x = (1 - x)/2
    x, y = project(sys, Address((1,) * 40), 40)
    assert abs(x - 1.0 / 3.0) < 1e-11 and abs(y) < 1e-11


def test_project_needs_long_word(sys):
    with pytest.raises(ValueError):
        project(sys, Address((1, 2)), 3)


def test_coords_match_map_composition():
    sys = ContractionSystem(0.3)
    g = DendriteGraph.build(3, sys)
    e0, e1 = g.edge_endpoints()
    for ordinal in (0, 5, 13, 26):
        word = Address.from_ordinal(3, ordinal)
        np.testing.assert_allclose(g.coords[e0[ordinal]], apply_word(sys, word, (0.0, 0.0)), atol=1e-15)
        np.testing.assert_allclose(g.coords[e1[ordinal]], apply_word(sys, word, (1.0, 0.0)), atol=1e-15)


def test_child_major_network_matches_address_order_reference():
    # the numbering changes no number: masses (mapped by vertex id), the four
    # counting arrays, the diameter and the floor bracketed by the curve are
    # those of the same cascade assembled on the address-order graph. The
    # fallback bracket starts at the Rayleigh bound, whose mass sum runs over
    # the vertices in id order, so there the floor may move within its 1e-9
    # tolerance (by one ulp on the depth-8 debug network)
    lams = np.concatenate(([-1.0, 0.0], np.geomspace(0.5, 1e7, 45)))
    for depth in range(10):
        seed = 30 + depth
        sampled = (CascadeTree.sample(depth, seed), perturbations(depth, seed))
        for debug, drawn in ((False, sampled), (True, (CascadeTree.debug(depth), np.ones(3**depth)))):
            net, ref = asymptotics.build_network(depth, seed, debug)[0], address_order_network(*drawn)
            np.testing.assert_array_equal(net.vertex_mass, ref.vertex_mass[address_vertex_ids(depth)])
            np.testing.assert_array_equal(net.conductance, ref.conductance[address_ordinals(depth)])
            got = _kernels.inertia_counts(net.schedule, net.vertex_mass, net.conductance, lams)
            want = _kernels.inertia_counts(ref.schedule, ref.vertex_mass, ref.conductance, lams)
            for kind, g, w in zip(("dirichlet", "neumann", "final", "pivot"), got, want):
                np.testing.assert_array_equal(g, w, err_msg=f"depth {depth}, {kind}")
            d = forms.diameter(net)
            assert d == address_order_diameter(ref)
            if depth >= 1:
                curve = (lams[2:], got[0][2:])
                assert curve[1][0] == 0 < curve[1][-1]  # the curve brackets the floor
                assert spectrum.dirichlet_floor(net, d, *curve) == spectrum.dirichlet_floor(ref, d, *curve)
                floor, ref_floor = spectrum.dirichlet_floor(net, d), spectrum.dirichlet_floor(ref, d)
                assert abs(floor / ref_floor - 1.0) <= 1e-9


def test_dendrite_rounds_read_step_one_slices():
    # every vertex and edge-slot set of every round (all but the rake plan),
    # the last round's single vertices too, is a step-1 slice; the fill
    # slots follow the edge slots
    for level in range(2, 11):
        sched = dendrite.structure(level)
        assert len(sched.rounds) == level
        for r in sched.rounds:
            for x in (r[0], *r[2:6]):
                assert isinstance(x, slice) and x.step == 1, (level, x)
            assert r[6] >= 3**level


def _same(x, y) -> bool:
    # equal types and values: slices by (start, stop, step), arrays by dtype
    # and entries, tuples entry by entry
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y


def test_written_down_schedule_equals_the_generic_builder():
    # every round's index sets, fill slot, rake and compress scatter plans,
    # fused, and every scalar field, as the generic tree builder
    # finds them; the builder keeps its index sets as int64 arrays, so the
    # dendrite's slices are compared by the ids they select
    fields = ("n_vertices", "n_slots", "final", "b0", "b1", "acc_live", "g_live")
    for level in range(10):
        got = dendrite.structure(level)
        want = _kernels.contraction_schedule(*child_major_endpoints(level), got.n_vertices, 0, 1)
        for name in fields:
            assert _same(getattr(got, name), getattr(want, name)), (level, name)
        assert len(got.rounds) == len(want.rounds) == level
        for k, (r, w) in enumerate(zip(got.rounds, want.rounds)):
            assert len(r) == len(w) == 9
            for j, (x, y) in enumerate(zip(r, w)):
                if j in (0, 2, 3, 4, 5):
                    assert isinstance(x, slice) and isinstance(y, np.ndarray) and y.dtype == np.int64, (level, k, j)
                    assert np.array_equal(np.arange(x.start, x.stop, x.step), y), (level, k, j)
                else:
                    assert _same(x, y), (level, k, j)


def test_structure_build_stays_near_its_endpoint_arrays():
    # the build peaks below 2.5 times the two int32 endpoint arrays of level
    # 10 (the generic builder's round masks and sorts took it to 4.5);
    # tracemalloc counts allocations, so the peak is deterministic
    tracemalloc.start()
    try:
        sched = dendrite.structure.__wrapped__(10)  # a fresh build, past the cache
        assert len(sched.rounds) == 10
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 * 4 * 3**10


def test_a_cached_level_keeps_no_per_cell_array():
    # a written-down level is its schedule: slices, scatter plans of a few
    # ranges and scalars, under 4 bytes per cell (one int32 array per cell
    # would be 4 on its own); tracemalloc's count is deterministic
    tracemalloc.start()
    try:
        sched = dendrite.structure.__wrapped__(10)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sched.rounds) == 10
    assert kept < 4 * 3**10


def test_lump_equals_two_bincounts_over_the_endpoints():
    # the thirds lumping adds each vertex's halves in cell order, as the
    # per-endpoint bincounts do, so the masses agree bit for bit: on sampled
    # halves l**2 / 2 and on random positive halves
    rng = np.random.default_rng(17)
    for level in range(11):
        ep0, ep1 = child_major_endpoints(level)
        nv = 3**level + 1
        lengths = CascadeTree.sample(level, 60 + level).base_lengths
        for half in (lengths * lengths * 0.5, rng.uniform(1e-9, 1.0, 3**level)):
            want = np.bincount(ep0, weights=half, minlength=nv)
            want += np.bincount(ep1, weights=half, minlength=nv)
            np.testing.assert_array_equal(dendrite.lump(half), want, err_msg=f"level {level}")


def test_corner_cells_hold_one_corner_each():
    # the two base cells with exactly one endpoint in {0, 1}, corner 0's first
    for level in range(1, 13):
        ep0, ep1 = child_major_endpoints(level)
        want = np.flatnonzero((ep0 < 2) != (ep1 < 2))
        net = forms.ResistanceNetwork(level, np.ones(3**level), np.full(3**level + 1, 1.0 / (3**level + 1)))
        assert net.corner_cells == tuple(want.tolist()), level
        assert ep1[net.corner_cells[0]] == 0 and ep1[net.corner_cells[1]] == 1
