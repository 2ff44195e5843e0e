import json
from dataclasses import fields

import numpy as np
import pytest

from crt_spectra import asymptotics, cascade, spectrum
from crt_spectra.asymptotics import EnsembleConfig, run_ensemble
from crt_spectra.errors import CapacityError, TailError, WindowUnresolved

from spectrum_oracle import trace_plateau


def small_config(**kw):
    base = dict(
        replicas=6,
        depth=4,
        master_seed=321,
        lambda_lo=0.5,
        lambda_hi=1e6,
        lambda_points=49,
    )
    base.update(kw)
    return EnsembleConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replicas=0)
    with pytest.raises(ValueError):
        small_config(lambda_hi=0.1)
    with pytest.raises(ValueError):
        small_config(lambda_hi=np.inf)
    with pytest.raises(ValueError):
        small_config(depth=-1)
    with pytest.raises(ValueError):
        small_config(lambda_points=0)
    with pytest.raises(ValueError):
        small_config(threads=0)
    with pytest.raises(ValueError):
        small_config(route="wat")
    with pytest.raises(ValueError):
        small_config(route="excursion", steps=4, leaves=4)
    grid = small_config().lambda_grid
    assert (np.diff(grid) > 0).all()


def test_default_grid_per_route():
    # the self-similar default is the old [1, 1e8] grid cut at 1e5, bit for bit
    selfsimilar = EnsembleConfig(replicas=1, depth=2, master_seed=0)
    np.testing.assert_array_equal(selfsimilar.lambda_grid, np.geomspace(1, 1e8, 97)[:61])
    excursion = EnsembleConfig(replicas=1, depth=0, master_seed=0, route="excursion")
    np.testing.assert_array_equal(excursion.lambda_grid, np.geomspace(1, 1e8, 97))
    assert selfsimilar.as_dict()["lambda_hi"] == 1e5 and excursion.as_dict()["lambda_points"] == 97
    # an override keeps the route's default for the other end
    assert EnsembleConfig(replicas=1, depth=2, master_seed=0, lambda_points=7).lambda_hi == 1e5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cut_grid_keeps_counts_and_ceilings(seed):
    new = run_ensemble(EnsembleConfig(replicas=4, depth=8, master_seed=seed))
    old = run_ensemble(EnsembleConfig(replicas=4, depth=8, master_seed=seed, lambda_hi=1e8, lambda_points=97))
    np.testing.assert_array_equal(new.resolutions, old.resolutions)
    np.testing.assert_array_equal(new.dirichlet, old.dirichlet[:, :61])
    np.testing.assert_array_equal(new.neumann, old.neumann[:, :61])


def test_config_hash_covers_results_not_threads(monkeypatch):
    def h(**kw):
        return asymptotics.provenance(small_config(**kw).as_dict())["config_hash"]

    assert h(depth=4) != h(depth=5)
    assert h(threads=1) == h(threads=2)
    # the same config on another random stream names another realization
    before = h()
    monkeypatch.setattr(asymptotics, "RANDOM_STREAM", "another-stream")
    assert h() != before


def test_run_ensemble_shapes_and_counts():
    res = run_ensemble(small_config())
    assert res.dirichlet.shape == (6, 49)
    assert (np.diff(res.dirichlet, axis=1) >= 0).all()
    assert ((res.neumann - res.dirichlet) >= 0).all()
    assert ((res.neumann - res.dirichlet) <= 2).all()
    assert (res.resolutions > 0).all()


def test_ensemble_deterministic_across_threads():
    a = run_ensemble(small_config(threads=1))
    b = run_ensemble(small_config(threads=3))
    np.testing.assert_array_equal(a.dirichlet, b.dirichlet)
    np.testing.assert_array_equal(a.neumann, b.neumann)
    np.testing.assert_array_equal(a.resolutions, b.resolutions)


def test_ensemble_budget():
    with pytest.raises(CapacityError):
        run_ensemble(small_config(depth=16, replicas=10_000))


def test_level0_ensemble_curve_jump():
    cfg = small_config(replicas=1, depth=0, lambda_points=33)
    res = run_ensemble(cfg)
    net = asymptotics.build_network(0, cfg.replica_seed(0))
    r = net.perturbations[0]
    jump = 4.0 * cascade.HEIGHT_CONSTANT / r
    nn = res.neumann[0]
    assert set(nn.tolist()) <= {1, 2}
    crossing = res.lambdas[np.nonzero(nn == 2)[0][0] - 1 : np.nonzero(nn == 2)[0][0] + 1]
    assert crossing[0] < jump <= crossing[1] * (1 + 1e-9)


def test_fit_scaling_on_synthetic_power_law():
    # exact power-law counts recover the exponent and plateau
    cfg = small_config(replicas=3)
    lams = cfg.lambda_grid
    counts = np.maximum((0.37 * lams ** (2.0 / 3.0)).astype(np.int64), 0)
    res = asymptotics.EnsembleResult(
        cfg, lams, counts[None, :].repeat(3, 0), counts[None, :].repeat(3, 0), np.full(3, 1e6),
    )
    fit = asymptotics.fit_scaling(res, window=(1e2, 1e5))
    assert abs(fit.slope - 2.0 / 3.0) < 0.01
    assert abs(fit.plateau - 0.37) < 0.02
    assert fit.spectral_dimension == pytest.approx(2.0 * fit.slope)


def test_auto_window_names_why_it_collapses():
    # the same power-law counts with the median ceiling below the count-6
    # lambda, then between it and three times it
    cfg = small_config(replicas=3)
    lams = cfg.lambda_grid
    counts = np.maximum((0.37 * lams ** (2.0 / 3.0)).astype(np.int64), 0)[None, :].repeat(3, 0)
    lo = float(lams[np.nonzero(counts[0] >= 6)[0][0]])
    below = asymptotics.EnsembleResult(cfg, lams, counts, counts, np.full(3, 0.5 * lo))
    with pytest.raises(WindowUnresolved, match=r"resolution ceiling .* lies below .*mean count reaches 6$"):
        asymptotics.auto_window(below)
    narrow = asymptotics.EnsembleResult(cfg, lams, counts, counts, np.full(3, 2.0 * lo))
    with pytest.raises(WindowUnresolved, match="spans less than half a decade"):
        asymptotics.auto_window(narrow)


def test_median_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 1.0, 2.5, 2.5, np.inf, -np.inf, np.nan, 1e308, 1e308]
    cases = [rng.random(n) for n in (1, 2, 7, 8)]  # odd and even lengths
    cases += [np.array([3.0, 1.0, 3.0, 2.0]), np.array([2.0, 2.0, 2.0])]  # ties
    cases += [np.array([np.inf, 1.0]), np.array([-np.inf, np.inf]), np.array([np.inf, 1.0, -np.inf])]
    cases += [np.array([np.nan, 1.0, 2.0]), np.array([1.0, np.nan]), np.array([1e308, 1e308])]
    cases += [rng.choice(special, size=int(rng.integers(1, 9))) for _ in range(2000)]
    with np.errstate(invalid="ignore", over="ignore"):
        for x in cases:
            want = np.median(x)
            got = asymptotics._median(x)
            assert type(got) is float
            if np.isnan(want):
                assert np.isnan(got), x
            else:
                assert np.float64(got).tobytes() == want.tobytes(), x


def test_length_quantile_matches_the_weighted_quantile_bit_for_bit():
    # the ceiling's exponent read off the sorted lengths is the argsort
    # quantile of -3 ln l weighted by l**2; q = 0 and 1 hit the index clamp,
    # and the debug cascade's lengths are all tied
    cascades = [cascade.CascadeTree.sample(d, s) for d in range(1, 12) for s in range(40)]
    cascades += [cascade.CascadeTree.sample(12, s) for s in range(3)]
    cascades += [cascade.CascadeTree.debug(d) for d in (1, 6, 10)]
    for casc in cascades:
        l_arr = casc.base_lengths
        for q in (0.0, asymptotics._CEILING_DEFICIT, 0.5, 0.97, 1.0):
            got = asymptotics._length_quantile(l_arr, q)
            want = asymptotics._weighted_quantile(-3.0 * np.log(l_arr), l_arr**2, q)
            assert type(got) is float and got.hex() == want.hex(), (casc.depth, casc.master_seed, q)


def test_auto_window_warns_when_the_grid_end_sets_window_hi(capsys):
    cfg = small_config(replicas=3)
    lams = cfg.lambda_grid
    counts = np.maximum((0.37 * lams ** (2.0 / 3.0)).astype(np.int64), 0)[None, :].repeat(3, 0)
    inside = asymptotics.EnsembleResult(cfg, lams, counts, counts, np.full(3, 1e5))
    assert asymptotics.auto_window(inside)[1] == 1e5
    assert capsys.readouterr().err == ""
    beyond = asymptotics.EnsembleResult(cfg, lams, counts, counts, np.full(3, 1e7))
    assert asymptotics.auto_window(beyond)[1] == lams[-1]
    err = capsys.readouterr().err
    assert err.startswith("warning: resolution ceiling 10000000.0 lies above the grid end")
    assert err.count("\n") == 1 and "window_hi" in err


def test_debug_cascade_smoke_slope():
    # deterministic masses are the lattice case: the counting function
    # triples every factor 3*sqrt(3) in lambda, with a periodic factor that
    # never converges; measure the exponent across whole periods where it
    # cancels exactly
    cfg = small_config(replicas=1, depth=10, debug_cascade=True, lambda_lo=1.0, lambda_hi=1e7, lambda_points=169)
    res = run_ensemble(cfg)
    mid = 0.5 * (res.neumann.mean(axis=0) + res.dirichlet.mean(axis=0))
    lo = 6000.0
    for periods in (1, 2):
        hi = lo * (3.0 * np.sqrt(3.0)) ** periods
        n_lo = np.interp(np.log(lo), np.log(res.lambdas), mid)
        n_hi = np.interp(np.log(hi), np.log(res.lambdas), mid)
        slope = np.log(n_hi / n_lo) / np.log(hi / lo)
        assert abs(slope - 2.0 / 3.0) < 0.02, (periods, slope)


def test_renewal_pieces():
    cfg = small_config(replicas=8, depth=5)
    _, est = asymptotics.estimate_renewal_constant(cfg)
    assert abs(est.nu_first_moment - 1.0) < 1e-6
    assert est.m_infinity > 0
    assert est.tail_lo == 0.0  # exact zeros below the floor
    assert est.tail_hi < 1e-3
    assert (est.u >= 0).all()


def test_renewal_error_bar_from_replica_integrals():
    # m_infinity is the mean of the per-replica integrals over the first
    # moment, and its stderr the bootstrap spread of that mean over the
    # same resamples fit_scaling uses: about the replica SD over sqrt(n)
    cfg = small_config(replicas=16, depth=4)
    res, est = asymptotics.estimate_renewal_constant(cfg)
    ts = est.t_grid
    assert est.replica_integral.shape == (16,)
    for r in range(cfg.replicas):
        want = np.trapezoid(np.exp(-2.0 * ts / 3.0) * res.eta[r], ts)
        assert est.replica_integral[r] == pytest.approx(want, rel=1e-14)
    mean = est.replica_integral.mean() / est.nu_first_moment
    assert est.m_infinity == pytest.approx(mean, rel=1e-12)
    naive = est.replica_integral.std(ddof=1) / np.sqrt(cfg.replicas) / est.nu_first_moment
    assert 0.8 * naive < est.m_infinity_stderr < 1.2 * naive
    boot = asymptotics._bootstrap_means(est.replica_integral)
    assert est.m_infinity_stderr == float(boot.std(ddof=1)) / est.nu_first_moment
    # one replica has no spread to resample
    _, single = asymptotics.estimate_renewal_constant(small_config(replicas=1, depth=4))
    assert single.m_infinity_stderr == 0.0 and single.replica_integral.shape == (1,)


def test_renewal_tail_guard(monkeypatch):
    # a t grid that ends at ln(1e3) cuts u off before it decays (u[-1] = 0.015)
    monkeypatch.setattr(asymptotics, "_T_HI", float(np.log(1e3)))
    cfg = small_config(replicas=2, depth=4)
    with pytest.raises(TailError):
        asymptotics.estimate_renewal_constant(cfg)


def test_ensemble_eta_rows_match_per_replica_eta():
    cfg = small_config(replicas=3, depth=4)
    ts = np.linspace(-2.0, 12.0, 30)
    with_eta = run_ensemble(cfg, ts)
    plain = run_ensemble(cfg)
    assert plain.eta is None and with_eta.eta.shape == (3, 30)
    np.testing.assert_array_equal(with_eta.dirichlet, plain.dirichlet)
    np.testing.assert_array_equal(with_eta.resolutions, plain.resolutions)
    for r in range(cfg.replicas):
        net = asymptotics.build_network(cfg.depth, cfg.replica_seed(r))
        np.testing.assert_array_equal(with_eta.eta[r], spectrum.eta_many(net, ts))
    with pytest.raises(ValueError):
        run_ensemble(small_config(route="excursion", replicas=1, steps=2**8, leaves=10), ts)


def test_eta_exact_zero_below_diameter_per_replica():
    from crt_spectra import forms

    cfg = small_config(replicas=4, depth=5)
    for r in range(cfg.replicas):
        net = asymptotics.build_network(cfg.depth, cfg.replica_seed(r))
        tmax = -np.log(forms.diameter(net))
        ts = np.linspace(tmax - 3.0, tmax - 1e-9, 20)
        assert (spectrum.eta_many(net, ts) == 0).all()


def test_excursion_route_smoke(monkeypatch):
    sizes = []
    build = asymptotics.reduced_tree

    def record(*args):
        tree = build(*args)
        sizes.append(tree.n_vertices)
        return tree

    monkeypatch.setattr(asymptotics, "reduced_tree", record)
    cfg = small_config(route="excursion", replicas=3, steps=2**10, leaves=40, lambda_points=25)
    res = run_ensemble(cfg)
    assert (np.diff(res.neumann, axis=1) >= 0).all()
    assert len(sizes) == 3 and max(sizes) <= 2 * 40 + 1
    assert (res.resolutions > 0).all()
    b = run_ensemble(cfg)
    np.testing.assert_array_equal(res.neumann, b.neumann)


def test_trace_plateau_power_law_reference():
    # exact power-law curves: t**(2/3) trace -> C0 Gamma(5/3)
    import math

    cfg = small_config(replicas=1, lambda_lo=1e-3, lambda_hi=1e9, lambda_points=301)
    lams = cfg.lambda_grid
    c0 = 0.41
    counts = (c0 * lams ** (2.0 / 3.0)).astype(np.int64)
    res = asymptotics.EnsembleResult(cfg, lams, counts[None, :], counts[None, :], np.full(1, 1e9))
    rep = trace_plateau(res, window=(1e2, 1e5), n_total=10**9)
    assert abs(rep["plateau"] / (c0 * math.gamma(5.0 / 3.0)) - 1.0) < 0.03


def test_write_results_deterministic(tmp_path):
    cfg = small_config(replicas=2)
    res = run_ensemble(cfg)
    fit = None
    out1 = asymptotics.write_results(tmp_path / "a", res, fit)
    out2 = asymptotics.write_results(tmp_path / "b", res, fit)
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()
    doc = json.loads((out1 / "config.json").read_text())
    assert doc["master_seed"] == 321
    assert doc["lumping"] == "half"
    assert "config_hash" in doc and "version" in doc


def test_records_hold_their_dataclass_fields(tmp_path):
    # each record is its dataclass, field by field, so m_infinity is written once, in renewal.json
    cfg = small_config(replicas=3)
    lams = cfg.lambda_grid
    counts = np.maximum((0.37 * lams ** (2.0 / 3.0)).astype(np.int64), 0)[None, :].repeat(3, 0)
    res = asymptotics.EnsembleResult(cfg, lams, counts, counts, np.full(3, 1e6))
    fit = asymptotics.fit_scaling(res, window=(1e2, 1e5))
    ren = asymptotics.RenewalEstimate(
        np.array([0.0, 1.0]), np.array([0.5, 0.25]), 1.0, 0.375, 0.5, 0.25, np.array([0.25, 0.5]), 0.125
    )
    out = asymptotics.write_results(tmp_path, res, fit, ren)
    fdoc = json.loads((out / "fit.json").read_text())
    rdoc = json.loads((out / "renewal.json").read_text())
    assert set(fdoc) == {f.name for f in fields(asymptotics.ScalingFit)}
    assert set(rdoc) == {f.name for f in fields(asymptotics.RenewalEstimate)}
    assert (fdoc["window_lo"], fdoc["window_hi"]) == ("100", "100000")
    assert rdoc["u"] == ["0.5", "0.25"] and rdoc["m_infinity"] == "0.375"
    assert rdoc["replica_integral"] == ["0.25", "0.5"] and rdoc["m_infinity_stderr"] == "0.125"
