import numpy as np
import pytest

from crt_spectra import dendrite

from cascade_oracle import Address
from dendrite_oracle import ContractionSystem, DendriteGraph, apply_map, apply_word, project, refine


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


def test_endpoint_convention():
    # cell k1 joins the midpoint to F_k(0,0), k2 to F_k(1,0), k3 to the tip
    g2 = DendriteGraph.build(2)
    e0, e1 = g2.edge_endpoints()
    st = dendrite.structure(1)
    e0p, e1p = st.ep0, st.ep1
    for parent in range(3):
        mid = 3 + 1 + 2 * parent
        assert e0[3 * parent] == mid and e1[3 * parent] == e0p[parent]
        assert e0[3 * parent + 1] == mid and e1[3 * parent + 1] == e1p[parent]
        assert e0[3 * parent + 2] == mid and e1[3 * parent + 2] == mid + 1


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
        word = g.cell_address(ordinal)
        np.testing.assert_allclose(g.coords[e0[ordinal]], apply_word(sys, word, (0.0, 0.0)), atol=1e-15)
        np.testing.assert_allclose(g.coords[e1[ordinal]], apply_word(sys, word, (1.0, 0.0)), atol=1e-15)
