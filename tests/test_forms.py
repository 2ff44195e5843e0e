import numpy as np
import pytest

from crt_spectra import asymptotics, forms
from crt_spectra.cascade import CascadeTree, HEIGHT_CONSTANT
from crt_spectra.errors import IncompleteCascade

import forms_oracle
from cascade_oracle import l_levels, lift_through_cascade, truncated_perturbations
from conftest import small_network
from dendrite_oracle import address_order_network, address_ordinals


def test_level0_assembly():
    casc = CascadeTree.sample(0, seed=1)
    r_base = truncated_perturbations(casc, 8)
    net = forms.assemble(0, casc, r_base)
    r = r_base[0]
    assert np.allclose(net.conductance, [HEIGHT_CONSTANT / r])
    np.testing.assert_allclose(net.vertex_mass, [0.5, 0.5])


def test_total_mass_every_level():
    for depth in (1, 3, 5):
        net = small_network(depth, seed=depth)
        assert abs(net.vertex_mass.sum() - 1.0) < 1e-12
        assert abs(net.cell_mass.sum() - 1.0) < 1e-9


def test_debug_cascade_edge_resistance():
    for depth in (1, 2, 4):
        net = forms.assemble(depth, CascadeTree.debug(depth), np.ones(3**depth))
        want = 3.0 ** (-depth / 2.0) / HEIGHT_CONSTANT
        np.testing.assert_allclose(1.0 / net.conductance, want, rtol=1e-14)


def test_assembly_validations():
    casc = CascadeTree.sample(3, seed=2)
    with pytest.raises(IncompleteCascade):
        forms.assemble(4, casc, truncated_perturbations(casc, 4))
    with pytest.raises(IncompleteCascade):
        forms.assemble(3, casc, np.ones(3**2))


def test_trace_reproduces_coarser_assembly():
    # the Schur trace puts the first two child resistances in series, which
    # telescopes through the R recursion into the coarser conductances
    casc = CascadeTree.sample(6, seed=9)
    r_levels = lift_through_cascade(casc, truncated_perturbations(casc, 6))
    net = forms.assemble(6, casc, r_levels[6])
    for level in range(6, 0, -1):
        traced = forms_oracle.trace_to_coarser(net)
        coarse = forms.assemble(
            level - 1,
            CascadeTree(level - 1, casc.triples[: level - 1], casc.master_seed),
            r_levels[level - 1],
        )
        rel = np.abs(traced.conductance / coarse.conductance - 1.0)
        assert rel.max() < 1e-9
        net = coarse
    with pytest.raises(ValueError):
        forms_oracle.trace_to_coarser(net)  # level 0


def test_trace_series_formula_and_debug_mismatch():
    # with R forced to 1 the series of two child resistances does not match
    # a direct coarser assembly: the perturbations are what make the family
    # compatible
    depth = 3
    net = forms.assemble(depth, CascadeTree.debug(depth), np.ones(3**depth))
    traced = forms_oracle.trace_to_coarser(net)
    r_child = 3.0 ** (-depth / 2.0) / HEIGHT_CONSTANT
    np.testing.assert_allclose(1.0 / traced.conductance, 2.0 * r_child, rtol=1e-14)
    direct = forms.assemble(depth - 1, CascadeTree.debug(depth - 1), np.ones(3 ** (depth - 1)))
    assert not np.allclose(1.0 / traced.conductance, 1.0 / direct.conductance, rtol=1e-3)


def test_mass_conservation_under_refinement():
    casc = CascadeTree.sample(5, seed=4)
    ll = l_levels(casc)
    for q in range(5):
        parent = ll[q] ** 2
        child = (ll[q + 1] ** 2).reshape(3, -1).sum(axis=0)
        np.testing.assert_allclose(child, parent, rtol=1e-14)


def test_effective_resistance_boundary_pair():
    net = small_network(4, seed=7)
    r = forms_oracle.effective_resistance(net, 0, 1)
    want = lift_through_cascade(net.cascade, net.perturbations)[0][0] / HEIGHT_CONSTANT
    assert abs(r / want - 1.0) < 1e-12
    assert forms_oracle.effective_resistance(net, 5, 5) == 0.0


def test_effective_resistance_additive_along_path():
    net = small_network(3, seed=8)
    # vertex 2 is the level-0 midpoint: it lies on the corner-to-corner path
    r01 = forms_oracle.effective_resistance(net, 0, 1)
    r0m = forms_oracle.effective_resistance(net, 0, 2)
    rm1 = forms_oracle.effective_resistance(net, 2, 1)
    assert abs(r01 - (r0m + rm1)) < 1e-12 * r01


def test_mean_boundary_resistance():
    # E[H R(0,1)] = E R = 1; Monte-Carlo oracle over cascades
    vals = []
    for seed in range(400):
        net = small_network(2, seed=seed, trunc=10)
        vals.append(HEIGHT_CONSTANT * forms_oracle.effective_resistance(net, 0, 1))
    assert abs(np.mean(vals) - 1.0) < 0.05


def test_diameter_level0():
    casc = CascadeTree.sample(0, seed=3)
    r_base = truncated_perturbations(casc, 6)
    net = forms.assemble(0, casc, r_base)
    assert abs(forms.diameter(net) - r_base[0] / HEIGHT_CONSTANT) < 1e-15


def test_diameter_monotone_in_level():
    casc = CascadeTree.sample(5, seed=11)
    r_levels = lift_through_cascade(casc, truncated_perturbations(casc, 6))
    prev = 0.0
    for level in range(6):
        net = forms.assemble(
            level,
            CascadeTree(level, casc.triples[:level], casc.master_seed),
            r_levels[level],
        )
        d = forms.diameter(net)
        assert d >= prev - 1e-12
        prev = d


def test_diameter_agrees_with_pairwise_search():
    net = small_network(3, seed=13)
    dist = np.array([[forms_oracle.effective_resistance(net, a, b) for b in range(net.n_vertices)] for a in range(net.n_vertices)])
    assert abs(dist.max() - forms.diameter(net)) < 1e-12


def test_diameter_matches_per_level_pass_bit_for_bit():
    # the one bottom-up pass does the per-level oracle's arithmetic in its order
    for depth in range(11):
        for net in (asymptotics.build_network(depth, 40 + depth), asymptotics.build_network(depth, 0, debug=True)):
            assert forms.diameter(net) == forms_oracle.cell_diameters(net, 0)[0]


def _extremal_speed() -> float:
    # -ln w ~ Exp(1) (w = sqrt(Beta(1/2, 1)) is uniform) with 3 children, so
    # min over level n of -ln l(i) ~ a n with a < 1 solving a - 1 - ln a = ln 3
    lo, hi = 1e-9, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid - 1.0 - np.log(mid) > np.log(3.0) else (lo, mid)
    return lo


@pytest.mark.slow
def test_cell_diameters_decay():
    # the largest cell diameter shrinks like max l(i), about exp(-0.1412 n):
    # 0.49 per 5 levels, less by Bramson's log correction at these depths.
    # Medians over 20 seeds gave ratios 0.41-0.53 on 8 blocks of seeds
    # (two streams, seeds 0-79 each); the bounds leave about two block
    # standard deviations beyond those
    meds = []
    for depth in (5, 10):
        vals = []
        for seed in range(20):
            net = small_network(depth, seed=seed, trunc=6)
            vals.append(forms_oracle.cell_diameters(net, depth).max())
        meds.append(np.median(vals))
    rate = np.exp(-5.0 * _extremal_speed())
    assert abs(rate - 0.4936) < 1e-4
    assert 0.6 * rate < meds[1] / meds[0] < 1.25 * rate


def test_rescaled_subnetwork_matches_fresh():
    net = small_network(4, seed=15)
    for j in (1, 2, 3):
        scaled = forms_oracle.subnetwork_rescaled(net, j)
        fresh = forms.subnetwork_fresh(net, j)
        np.testing.assert_allclose(scaled.conductance, fresh.conductance, rtol=1e-12)
        np.testing.assert_allclose(scaled.vertex_mass, fresh.vertex_mass, rtol=1e-12)
        assert abs(scaled.vertex_mass.sum() - 1.0) < 1e-9


def test_subtree_and_fresh_subnetwork_take_every_third_cell():
    # first-generation cell j holds every third cell of each level from
    # j - 1, and its lengths are those of its own cascade times w(j); the
    # products round in another order, by at most one ulp per factor
    depth = 5
    net = asymptotics.build_network(depth, 21)
    casc = net.cascade
    for j in (1, 2, 3):
        sub = casc.subtree(j)
        assert sub.depth == depth - 1
        for q in range(depth - 1):
            np.testing.assert_array_equal(sub.triples[q], casc.triples[q + 1][j - 1 :: 3])
        w_j = np.sqrt(casc.triples[0][0, j - 1])
        np.testing.assert_array_max_ulp(casc.base_lengths[j - 1 :: 3], w_j * sub.base_lengths, maxulp=depth)
        np.testing.assert_array_equal(forms.subnetwork_fresh(net, j).perturbations, net.perturbations[j - 1 :: 3])


def test_traced_network_cuts_into_fresh_subnetworks():
    # the trace carries the coarser cascade and lifted R, so its fresh cells
    # are those of the coarse assembly, and its traced conductances cut into
    # the same cells
    net = small_network(4, seed=3)
    traced = forms_oracle.trace_to_coarser(net)
    r_levels = lift_through_cascade(net.cascade, net.perturbations)
    coarse = forms.assemble(3, CascadeTree(3, net.cascade.triples[:3], net.cascade.master_seed), r_levels[3])
    for j in (1, 2, 3):
        fresh = forms.subnetwork_fresh(traced, j)
        assert fresh.level == 2
        for other in (forms.subnetwork_fresh(coarse, j), forms_oracle.subnetwork_rescaled(traced, j)):
            np.testing.assert_allclose(fresh.conductance, other.conductance, rtol=1e-9)
            np.testing.assert_allclose(fresh.vertex_mass, other.vertex_mass, rtol=1e-9)


def test_cell_block_slices_are_views_of_assembly():
    # cell 2's block holds the assembly's cells under address 2 (ordinals 9-17
    # in address order), each as cell of the level-2 graph in child-major order
    net = small_network(3, seed=16)
    conduct, cmass = forms_oracle.cell_block(net, 2)
    ref = address_order_network(net)
    np.testing.assert_array_equal(conduct, ref.conductance[9:18][address_ordinals(2)])
    np.testing.assert_array_equal(cmass, ref.cell_mass[9:18][address_ordinals(2)])
    assert np.shares_memory(conduct, net.conductance) and np.shares_memory(cmass, net.cell_mass)
