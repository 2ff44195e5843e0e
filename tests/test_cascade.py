import mpmath
import numpy as np
import pytest

from crt_spectra import cascade
from crt_spectra.cascade import Address, CascadeTree
from crt_spectra.errors import CapacityError, IncompleteCascade

import cascade_oracle
from cascade_oracle import beta_half_one_moment, ordinal, parse_address
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
    for level, codes in enumerate(cascade.level_codes(6)):
        for c in codes:
            assert int(c) not in seen
            seen.add(int(c))
        assert len(codes) == 3**level


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
    for level, larr in enumerate(casc.l_levels()):
        assert larr.shape[0] == 3**level
        assert abs((larr**2).sum() - 1.0) < 1e-9


def test_cascade_depth_zero():
    casc = CascadeTree.sample(0, seed=1)
    assert casc.triples == []
    assert casc.l_levels()[0][0] == 1.0
    assert casc.to_json().count('"triples":{}') == 1


def test_cascade_cubic_mean():
    # E sum l(i)**3 at depth 8 = (3 E mass**1.5)**8 = (3/4)**8; MC oracle
    target = (3.0 * beta_half_one_moment(1.5)) ** 8
    assert abs(target - 0.75**8) < 1e-9
    assert abs(beta_half_one_moment(1.5) - beta_half_one_quad(1.5)) < 1e-12
    vals = []
    for seed in range(100):
        casc = CascadeTree.sample(8, seed=seed)
        vals.append((casc.l_levels()[8] ** 3).sum())
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


def test_perturbations_trivial_truncation():
    # truncation 0 is the single empty product at every base-level address;
    # coarser levels still follow the recursion (the table keeps one
    # truncation horizon so the trace identity stays exact)
    casc = CascadeTree.sample(3, seed=4)
    table = cascade.perturbations(casc, 0)
    np.testing.assert_array_equal(table.r_levels[3], np.ones(27))
    w = casc.w_levels()
    want = w[3][0::3] + w[3][1::3]
    np.testing.assert_array_equal(table.r_levels[2], want)


def test_perturbation_recursion_bit_exact():
    casc = CascadeTree.sample(4, seed=10)
    table = cascade.perturbations(casc, 6)
    w = casc.w_levels()
    for q in range(4):
        child = table.r_levels[q + 1]
        want = w[q + 1][0::3] * child[0::3] + w[q + 1][1::3] * child[1::3]
        np.testing.assert_array_equal(table.r_levels[q], want)


def test_perturbation_direct_sum_oracle():
    # R at the root with truncation m is literally sum over binary words of
    # the weight products; enumerate them directly as the oracle
    casc = CascadeTree.sample(0, seed=31)
    m = 7
    table = cascade.perturbations(casc, m)
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
    assert abs(total - table.r_levels[0][0]) < 1e-10


def test_perturbations_match_deeper_cascade():
    # the lazy binary extension reuses the per-address stream, so computing
    # through a deeper sample of the same seed gives identical values
    c3 = CascadeTree.sample(3, seed=8)
    c4 = CascadeTree.sample(4, seed=8)
    t3 = cascade.perturbations(c3, 3)
    t4 = cascade.perturbations(c4, 2)
    np.testing.assert_array_equal(t3.r_levels[3], t4.r_levels[3])


def test_perturbations_budget():
    casc = CascadeTree.sample(4, seed=1)
    with pytest.raises(CapacityError):
        cascade.perturbations(casc, 40)


def test_perturbations_need_seed():
    casc = CascadeTree.debug(2)
    with pytest.raises(IncompleteCascade):
        cascade.perturbations(casc, 2)


def test_pool_martingale_mean_and_second_moment():
    pool = cascade.sample_perturbation_pool(100_000, 20, seed=6)
    assert (pool > 0).all()
    assert abs(pool.mean() - 1.0) < 0.01
    # second moment: E R**2 = 6 E sqrt(m1 m2), both sides by Monte Carlo
    key = cascade.derive_key(1234, 0x7A31)
    t = cascade.dirichlet_half_triples(key, np.arange(100_000, dtype=np.uint64))
    rhs = 6.0 * np.sqrt(t[:, 0] * t[:, 1]).mean()
    assert abs((pool**2).mean() / rhs - 1.0) < 0.02


def test_pooled_table_preserves_recursion():
    casc = CascadeTree.sample(5, seed=3)
    table = cascade.perturbations_pooled(casc, 20)
    w = casc.w_levels()
    for q in range(5):
        child = table.r_levels[q + 1]
        want = w[q + 1][0::3] * child[0::3] + w[q + 1][1::3] * child[1::3]
        np.testing.assert_array_equal(table.r_levels[q], want)
    assert abs(table.r_levels[5].mean() - 1.0) < 0.15


def test_height_identity_first_moment():
    # E[H * D] = H * sqrt(pi/8) = 1 matches E R = 1 at the level of means
    assert abs(cascade.HEIGHT_CONSTANT * np.sqrt(np.pi / 8.0) - 1.0) < 1e-15


# -- cut sets and branching counts --------------------------------------------


def test_cut_set_first_generation():
    casc = CascadeTree.sample(6, seed=12)
    w1 = casc.w_levels()[1]
    t = 0.9 * float(min(-3.0 * np.log(w1)))
    cut = cascade_oracle.cut_set(casc, t)
    assert cut == {Address((1,)), Address((2,)), Address((3,))}


def test_cut_set_partitions_mass():
    casc = CascadeTree.sample(10, seed=13)
    for t in (0.5, 1.5, 3.0):
        cut = cascade_oracle.cut_set(casc, t)
        total = sum(casc.l_levels()[len(a.word)][ordinal(a)] ** 2 for a in cut)
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


# -- serialization -------------------------------------------------------------


def test_cascade_json_roundtrip():
    casc = CascadeTree.sample(3, seed=21)
    text = casc.to_json()
    back = cascade_oracle.cascade_from_json(text)
    assert back.depth == 3
    assert back.master_seed == 21
    for q in range(3):
        np.testing.assert_allclose(back.triples[q], casc.triples[q], rtol=0, atol=0)
    assert back.to_json() == text


def test_cascade_binary_roundtrip():
    casc = CascadeTree.sample(4, seed=22)
    blob = casc.to_binary()
    back = cascade_oracle.cascade_from_binary(blob)
    assert back.depth == 4
    for q in range(4):
        np.testing.assert_array_equal(back.triples[q], casc.triples[q])


def test_cascade_binary_names_its_format():
    # the header carries the format version after the magic; a reader
    # meeting any other version refuses the dump rather than misread it
    blob = CascadeTree.sample(2, seed=23).to_binary()
    assert blob[:8] == b"CRTC" + (2).to_bytes(4, "little")
    for version in (1, 3):
        with pytest.raises(ValueError, match="format"):
            cascade_oracle.cascade_from_binary(blob[:4] + version.to_bytes(4, "little") + blob[8:])
