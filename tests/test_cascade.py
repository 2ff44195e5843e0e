from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from crt_spectra import _kernels, asymptotics, cascade
from crt_spectra.cascade import CascadeTree
from crt_spectra.errors import CapacityError, IncompleteCascade

import cascade_oracle
from cascade_oracle import Address, beta_half_one_moment, ordinal, parse_address
from dendrite_oracle import address_ordinals
from excursion_oracle import MassTriple


def test_address_basics():
    a = parse_address("132")
    assert len(a.word) == 3
    assert str(a) == "132"
    assert Address.from_ordinal(3, ordinal(a)) == a
    with pytest.raises(ValueError):
        Address((0, 1))


def test_address_codes_injective():
    seen = set()
    for level in range(7):
        codes = cascade.level_codes(level)
        for c in codes:
            assert int(c) not in seen
            seen.add(int(c))
        assert len(codes) == 3**level


def test_level_codes_match_the_child_chain():
    # child d of level-(q-1) cell k is level-q cell k + (d - 1) 3**(q-1), so
    # the codes are the lexicographic ones, (3**q - 1) / 2 + p at address
    # ordinal p, with the base-3 digits of each cell ordinal reversed
    for level, codes in enumerate(cascade_oracle.level_codes_chain(12)):
        got = cascade.level_codes(level)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, codes)
        lexicographic = np.arange(3**level, dtype=np.uint64) + (3**level - 1) // 2
        np.testing.assert_array_equal(got, lexicographic[address_ordinals(level)])
        for c in range(0, 3**level, 3**level // 7 + 1):
            code = 0
            for d in Address.from_ordinal(level, c).word:
                code = 3 * code + d
            assert int(got[c]) == code


def test_mass_triple_validation():
    with pytest.raises(ValueError):
        MassTriple(0.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        MassTriple(1.0, 0.0, 0.0)


def beta_half_one_quad(s: float) -> float:
    # E X**s against the Beta(1/2, 1) marginal density x**(-1/2)/2, by quadrature
    return float(mpmath.quad(lambda x: x ** (s - 0.5) / 2, [0, 1]))


def test_dirichlet_moments():
    # oracle: E X**s for the Beta(1/2, 1) marginal by quadrature = 1/(2s+1)
    m1 = beta_half_one_moment(1.0)
    m2 = beta_half_one_moment(2.0)
    assert abs(m1 - 1.0 / 3.0) < 1e-9
    assert abs(m2 - 1.0 / 5.0) < 1e-9
    assert abs(m1 - beta_half_one_quad(1.0)) < 1e-12
    assert abs(m2 - beta_half_one_quad(2.0)) < 1e-12
    key = cascade.derive_key(99, 0x7A31)
    t = cascade.dirichlet_half_triples(key, np.arange(100_000, dtype=np.uint64))
    assert abs(t[:, 0].mean() - m1) < 0.005
    assert abs((t[:, 0] ** 2).mean() - m2) < 0.005
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_marginals_and_cross_moment():
    # every component is Beta(1/2, 1), CDF sqrt(x): Kolmogorov-Smirnov
    # statistic against its 5 % critical value 1.36 / sqrt(n); and the
    # components are exchangeable with E m1 m2 = (1/4) / ((3/2)(5/2)) = 1/15
    n = 100_000
    key = cascade.derive_key(99, 0x7A31)
    t = cascade.dirichlet_half_triples(key, np.arange(n, dtype=np.uint64))
    ecdf_hi = np.arange(1, n + 1) / n
    for j in range(3):
        cdf = np.sqrt(np.sort(t[:, j]))
        ks = max((ecdf_hi - cdf).max(), (cdf - (ecdf_hi - 1.0 / n)).max())
        assert ks < 1.36 / np.sqrt(n), (j, ks)
    means = t.mean(axis=0)
    # standard errors: 0.00094 per mean, 0.0016 per difference, 0.00023 for m1 m2
    assert np.abs(means - 1.0 / 3.0).max() < 0.005
    assert means.max() - means.min() < 0.008
    assert abs((t[:, 0] * t[:, 1]).mean() - 1.0 / 15.0) < 0.0012


def test_cascade_level_mass_conservation():
    casc = CascadeTree.sample(8, seed=5)
    for level, larr in enumerate(cascade_oracle.l_levels(casc)):
        assert larr.shape[0] == 3**level
        assert abs((larr**2).sum() - 1.0) < 1e-9


def test_base_lengths_are_the_last_level_of_the_recurrence():
    # one cached array, bit-identical to the per-level recurrence's base level
    for depth in (0, 1, 4, 7):
        for casc in (CascadeTree.sample(depth, seed=depth), CascadeTree.debug(depth)):
            np.testing.assert_array_equal(casc.base_lengths, cascade_oracle.l_levels(casc)[depth])
            assert casc.base_lengths is casc.base_lengths


def test_cascade_depth_zero():
    casc = CascadeTree.sample(0, seed=1)
    assert casc.triples == []
    assert cascade_oracle.l_levels(casc)[0][0] == 1.0


def test_cascade_cubic_mean():
    # E sum l(i)**3 at depth 8 = (3 E mass**1.5)**8 = (3/4)**8; MC oracle
    target = (3.0 * beta_half_one_moment(1.5)) ** 8
    assert abs(target - 0.75**8) < 1e-9
    assert abs(beta_half_one_moment(1.5) - beta_half_one_quad(1.5)) < 1e-12
    vals = []
    for seed in range(100):
        casc = CascadeTree.sample(8, seed=seed)
        vals.append((cascade_oracle.l_levels(casc)[8] ** 3).sum())
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / 10.0
    assert abs(vals.mean() - target) < max(4.0 * se, 0.01)


def test_per_address_determinism_extends():
    shallow = CascadeTree.sample(3, seed=77)
    deep = CascadeTree.sample(5, seed=77)
    for q in range(3):
        np.testing.assert_array_equal(shallow.triples[q], deep.triples[q])


def test_subtree_view():
    casc = CascadeTree.sample(4, seed=2)
    sub = casc.subtree(2)
    assert sub.depth == 3
    a = Address((3, 1))
    np.testing.assert_array_equal(sub.triples[2][ordinal(a)], casc.triples[3][ordinal(Address((2, 3, 1)))])


def test_capacity_error_on_depth():
    import crt_spectra.settings as settings

    assert 3**40 > settings.cell_budget()
    with pytest.raises(CapacityError):
        CascadeTree.sample(40, seed=0)


# -- perturbations -----------------------------------------------------------
#
# The truncated reference (the literal binary extension) and the lift of
# base-level R through the recursion live in cascade_oracle;
# cascade.perturbations draws the base level from the exact law.

RAYLEIGH_MOMENTS = (1.0, 4.0 / np.pi, 6.0 / np.pi, 32.0 / np.pi**2)


def rayleigh_moment(k: float) -> float:
    """E R**k for R = sqrt((4/pi) E), E ~ Exp(1): (4/pi)**(k/2) Gamma(1 + k/2)."""
    return float((4.0 / mpmath.pi) ** (k / 2.0) * mpmath.gamma(1.0 + k / 2.0))


def rayleigh_cdf(r: np.ndarray) -> np.ndarray:
    return 1.0 - np.exp(-np.pi * r * r / 4.0)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.shape[0]
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.shape[0]
    return float(np.abs(fa - fb).max())


def assert_recursion_bit_exact(casc: CascadeTree, r_base: np.ndarray) -> None:
    r_levels = cascade_oracle.lift_through_cascade(casc, r_base)
    assert [level.shape[0] for level in r_levels] == [3**q for q in range(casc.depth + 1)]
    np.testing.assert_array_equal(r_levels[casc.depth], r_base)
    w = cascade_oracle.w_levels(casc)
    for q in range(casc.depth):
        child, k = r_levels[q + 1], 3**q  # children 1 and 2 of every cell: the first two thirds
        want = w[q + 1][:k] * child[:k] + w[q + 1][k : 2 * k] * child[k : 2 * k]
        np.testing.assert_array_equal(r_levels[q], want)


def test_perturbations_trivial_truncation():
    # truncation 0 is the single empty product at every base-level address;
    # coarser levels still follow the recursion (the lift keeps one
    # truncation horizon so the trace identity stays exact)
    casc = CascadeTree.sample(3, seed=4)
    r_base = cascade_oracle.truncated_perturbations(casc, 0, 4)
    np.testing.assert_array_equal(r_base, np.ones(27))
    w = cascade_oracle.w_levels(casc)
    want = w[3][:9] + w[3][9:18]
    np.testing.assert_array_equal(cascade_oracle.lift_through_cascade(casc, r_base)[2], want)


def test_perturbation_recursion_bit_exact():
    casc = CascadeTree.sample(4, seed=10)
    assert_recursion_bit_exact(casc, cascade_oracle.truncated_perturbations(casc, 6, 10))
    # the exact draws are one float per base cell, and lift like any other
    for depth, seed in ((0, 1), (1, 2), (5, 3), (8, 4)):
        casc = CascadeTree.sample(depth, seed=seed)
        r_base = cascade.perturbations(casc.depth, seed)
        assert r_base.shape == (3**depth,) and r_base.dtype == np.float64
        assert_recursion_bit_exact(casc, r_base)


def test_perturbation_direct_sum_oracle():
    # R at the root with truncation m is literally sum over binary words of
    # the weight products; enumerate them directly as the oracle
    casc = CascadeTree.sample(0, seed=31)
    m = 7
    r_base = cascade_oracle.truncated_perturbations(casc, m, 31)
    key = cascade.derive_key(31, 0x7A31)

    total = 0.0
    for bits in range(2**m):
        code = 0
        prod = 1.0
        for b in range(m):
            digit = 1 + ((bits >> b) & 1)
            t = cascade.dirichlet_half_triples(key, np.array([code], dtype=np.uint64))[0]
            prod *= np.sqrt(t[digit - 1])
            code = 3 * code + digit
        total += prod
    assert abs(total - r_base[0]) < 1e-10


def test_perturbations_match_deeper_cascade():
    # the lazy binary extension reuses the per-address stream, so computing
    # through a deeper sample of the same seed gives identical values
    c3 = CascadeTree.sample(3, seed=8)
    c4 = CascadeTree.sample(4, seed=8)
    t3 = cascade_oracle.truncated_perturbations(c3, 3, 8)
    t4 = cascade_oracle.truncated_perturbations(c4, 2, 8)
    np.testing.assert_array_equal(t3, cascade_oracle.lift_through_cascade(c4, t4)[3])


def test_perturbations_budget():
    casc = CascadeTree.sample(4, seed=1)
    with pytest.raises(CapacityError):
        cascade_oracle.truncated_perturbations(casc, 40, 1)


def test_perturbations_need_seed():
    casc = CascadeTree.debug(2)
    with pytest.raises(IncompleteCascade):
        cascade_oracle.truncated_perturbations(casc, 2, None)
    with pytest.raises(IncompleteCascade):
        cascade.perturbations(casc.depth, None)


def test_exact_perturbation_moments():
    # E R**k in closed form, and the sample moments of one depth-11 base
    # level (3**11 iid draws) within 4 Monte-Carlo standard errors, each
    # from the exact variance E R**2k - (E R**k)**2
    for k, want in enumerate(RAYLEIGH_MOMENTS, start=1):
        assert abs(rayleigh_moment(k) - want) < 1e-15
    base = cascade.perturbations(11, 6)
    n = base.shape[0]
    for k, want in enumerate(RAYLEIGH_MOMENTS, start=1):
        se = np.sqrt((rayleigh_moment(2 * k) - want**2) / n)
        assert abs((base**k).mean() - want) < 4.0 * se, k
    # and the whole law: one-sample KS against 1 - exp(-pi r**2 / 4) at the 0.1 % level
    r = np.sort(base)
    cdf = rayleigh_cdf(r)
    d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert d < 1.95 / np.sqrt(n)


def test_exact_perturbations_match_binary_extension_in_law():
    # two-sample KS at the 0.1 % level: exact base values against the
    # truncated reference at m = 14 (which keeps all but (2/3)**14 = 0.3 %
    # of R's variance), pooled over depth-6 cascades of several seeds
    exact, truncated = [], []
    for seed in range(200, 204):
        casc = CascadeTree.sample(6, seed=seed)
        exact.append(cascade.perturbations(casc.depth, seed))
        truncated.append(cascade_oracle.truncated_perturbations(casc, 14, seed))
    a, b = np.concatenate(exact), np.concatenate(truncated)
    n = a.shape[0]
    assert n == b.shape[0] == 4 * 3**6
    assert ks_statistic(a, b) < 1.95 * np.sqrt(2.0 / n)


def test_exact_perturbations_depend_only_on_seed_and_address():
    # depth 10 draws 59,049 codes, and every third cell 19,683: several
    # sampler blocks, cut at different codes
    depth, seed = 10, 41
    base = cascade.perturbations(depth, seed)
    # the cells below address 2 (every third cell from 1), drawn on their own, are the same values
    key = cascade.derive_key(seed, cascade._TAG_PERTURB)
    codes = cascade.level_codes(depth)
    alone = cascade.rayleigh_perturbations(key, codes[1::3])
    np.testing.assert_array_equal(alone, base[1::3])
    # the next seed draws another base level: a shared value would be a
    # coincidence of 52-bit uniforms, so all but a handful of cells differ
    assert np.count_nonzero(cascade.perturbations(depth, seed + 1) == base) <= 3
    # built on one thread or two, every network's conductances H / (l R),
    # and so its perturbations, are the same
    seeds = list(range(10, 16))
    serial = [asymptotics.build_network(5, s)[0].conductance for s in seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = [net.conductance for net, _ in pool.map(lambda s: asymptotics.build_network(5, s), seeds)]
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


def test_exact_perturbations_independent_of_the_triples():
    # base R is uncorrelated with its cell's length and with the triple of
    # its parent, within 4 standard errors of a zero correlation
    casc = CascadeTree.sample(10, seed=12)
    base = cascade.perturbations(casc.depth, 12)
    n = base.shape[0]
    parent = casc.triples[9]
    for other in (np.log(cascade_oracle.l_levels(casc)[10]), np.tile(parent[:, 0], 3), cascade_oracle.w_levels(casc)[10]):
        assert abs(np.corrcoef(base, other)[0, 1]) < 4.0 / np.sqrt(n)
    # nor with a cascade triple keyed by the same code on the triple stream
    key = cascade.derive_key(12, cascade._TAG_TRIPLES)
    same_code = cascade.dirichlet_half_triples(key, cascade.level_codes(10))[:, 0]
    assert abs(np.corrcoef(base, same_code)[0, 1]) < 4.0 / np.sqrt(n)


def test_extreme_bit_patterns_give_finite_positive_perturbations():
    bits = np.array([0, 2**64 - 1], dtype=np.uint64)
    r = _kernels._rayleigh(bits)
    assert np.isfinite(r).all() and (r > 0).all()
    # u = 2**-53 and 1 - 2**-53: the largest and the smallest R the stream can draw
    np.testing.assert_allclose(r, np.sqrt((4.0 / np.pi) * np.array([53 * np.log(2.0), 2.0**-53])), rtol=1e-12)
    assert np.isfinite(cascade.HEIGHT_CONSTANT / r).all()


def test_height_identity_first_moment():
    # E[H * D] = H * sqrt(pi/8) = 1 matches E R = 1 at the level of means
    assert abs(cascade.HEIGHT_CONSTANT * np.sqrt(np.pi / 8.0) - 1.0) < 1e-15


# -- cut sets and branching counts --------------------------------------------


def test_cut_set_first_generation():
    casc = CascadeTree.sample(6, seed=12)
    w1 = cascade_oracle.w_levels(casc)[1]
    t = 0.9 * float(min(-3.0 * np.log(w1)))
    cut = cascade_oracle.cut_set(casc, t)
    assert cut == {Address((1,)), Address((2,)), Address((3,))}


def test_cut_set_partitions_mass():
    casc = CascadeTree.sample(10, seed=13)
    for t in (0.5, 1.5, 3.0):
        cut = cascade_oracle.cut_set(casc, t)
        total = sum(cascade_oracle.l_levels(casc)[len(a.word)][ordinal(a)] ** 2 for a in cut)
        assert abs(total - 1.0) < 1e-9
        # antichain: no element is a prefix of another
        words = sorted(str(a) for a in cut)
        for w1_, w2_ in zip(words, words[1:]):
            assert not w2_.startswith(w1_)


def test_cut_set_capacity():
    casc = CascadeTree.sample(2, seed=1)
    with pytest.raises(CapacityError):
        cascade_oracle.cut_set(casc, 30.0)
    with pytest.raises(ValueError):
        cascade_oracle.cut_set(casc, -1.0)


def test_malthusian_growth_exponent():
    t_grid = np.linspace(2.0, 6.0, 9)
    counts = np.zeros_like(t_grid)
    for seed in range(4):
        counts += cascade_oracle.branch_count_below(seed, t_grid)
    y = np.log(counts / 4.0)
    x = t_grid - t_grid.mean()
    slope = float((x * y).sum() / (x * x).sum())
    assert abs(slope - 2.0) < 0.1


# -- the tilted split measure --------------------------------------------------


def test_nu_gamma_moments():
    total, first = cascade.nu_gamma_moments()
    assert abs(total - 1.0) < 1e-9
    assert abs(first - 1.0) < 1e-6
    # both against the Beta(1/2, 1) marginal density x**(-1/2)/2, tilted by the mass x
    assert abs(total - float(mpmath.quad(lambda x: 3 * x * x**-0.5 / 2, [0, 1]))) < 1e-12
    assert abs(first - float(mpmath.quad(lambda x: 3 * (-1.5 * mpmath.log(x)) * x * x**-0.5 / 2, [0, 1]))) < 1e-12
    # the first moment decomposes through int x**a ln x dx = -1/(a+1)**2
    check = float(mpmath.quad(lambda x: -mpmath.log(x) * x**0.5, [0, 1]))
    assert abs(check - 4.0 / 9.0) < 1e-12


def test_w_squared_mean():
    assert abs(beta_half_one_moment(1.0) - 1.0 / 3.0) < 1e-9
