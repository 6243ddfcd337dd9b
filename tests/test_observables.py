import functools

import numpy as np
import pytest

from riesz_she import (InitialCondition, Lattice, NonlinearitySpec, Region,
                       RieszSpec, SpatialField, build_embedding, estimate_eta,
                       k_beta, limit_covariance, mean_field, region_average,
                       simulate)
from riesz_she.noise import cube_pair_integral
from riesz_she.observables import (ball_pair_integral, eta_sq_integrals,
                                   region_averages)
from riesz_she.stats import sigma_lag_means

K_BETA_HALF = 2 ** 2.5 / 0.75  # d=1, beta=0.5 ball: 7.54247...


def const_field(lat, c):
    return SpatialField(lat, np.full(lat.shape, c))


def g_r_reducer(init, t, lat, regions):
    """The runner's G_R reducer of the regions at record time t."""
    cells = [reg.cells(lat) for reg in regions]
    mean = mean_field(init, t, lat).reshape(-1)
    return functools.partial(region_averages, cells=cells,
                             means=[mean[idx] for idx in cells],
                             cell_volume=lat.cell_volume)


def average(field_in, region, mean_field_in):
    """region_average of one field, as a block of one row."""
    lat = field_in.lattice
    idx = region.cells(lat)
    return region_average(field_in.values.reshape(1, -1), idx,
                          mean_field_in.values.reshape(-1)[idx],
                          lat.cell_volume)[0]


def test_region_average_zero_for_mean():
    lat = Lattice(1, 64, 8.0)
    assert average(const_field(lat, 1.0), Region("ball", 3.0),
                   const_field(lat, 1.0)) == 0.0


def test_region_average_d1_interval():
    lat = Lattice(1, 64, 8.0)  # h = 0.25
    val = average(const_field(lat, 2.0), Region("ball", 1.0),
                  const_field(lat, 1.0))
    assert abs(val - 2.0) <= 0.25  # |B_1| = 2 up to one cell volume


def test_region_average_d2_disk_area():
    for n, L in ((128, 6.4), (256, 6.4)):  # h = 0.1, 0.05
        lat = Lattice(2, n, L)
        val = average(const_field(lat, 2.0), Region("ball", 1.0),
                      const_field(lat, 1.0))
        assert abs(val - np.pi) <= 3 * lat.h


def test_region_average_quadrature_convergence():
    # |result(h) - result(h/2)| <= C h on a smooth field
    results = {}
    for n in (64, 128, 256):
        lat = Lattice(1, n, 8.0)
        x = lat.axis_centers()
        f = SpatialField(lat, np.cos(x))
        results[n] = average(f, Region("ball", 2.0), const_field(lat, 0.0))
    exact = 2 * np.sin(2.0)
    h64 = 16.0 / 64
    assert abs(results[64] - results[128]) <= 2.0 * h64
    assert abs(results[256] - exact) <= 1.0 * (16.0 / 256)


def test_region_average_empty_region():
    lat = Lattice(1, 16, 8.0)  # h = 1, centers at +-0.5, ...
    with pytest.raises(ValueError, match="no cell centers"):
        average(const_field(lat, 1.0), Region("ball", 0.2),
                const_field(lat, 0.0))
    with pytest.raises(ValueError, match="must be ball or box, got 'cube'"):
        Region("cube", 1.0)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_region_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="must be positive"):
        Region("ball", radius)


def test_region_average_rows_do_not_depend_on_the_block():
    # each row of a block sums to the same float as that row alone
    lat = Lattice(2, 32, 4.0)
    idx = Region("ball", 2.0).cells(lat)
    flat = np.random.default_rng(3).standard_normal((7, lat.n_cells))
    mean = np.linspace(0.0, 1.0, idx.size)
    block = region_average(flat, idx, mean, lat.cell_volume)
    assert block.shape == (7,)
    assert block.tolist() == [region_average(flat[i:i + 1], idx, mean,
                                             lat.cell_volume)[0]
                              for i in range(7)]


def test_region_box_mask_d2():
    lat = Lattice(2, 64, 4.0)
    ball = Region("ball", 1.0).mask(lat).sum()
    box = Region("box", 1.0).mask(lat).sum()
    assert box > ball  # box circumscribes the ball
    assert box == pytest.approx((2.0 / lat.h) ** 2, rel=0.1)


def test_k_beta_closed_form():
    for kind in ("ball", "box"):
        val = k_beta(kind, RieszSpec(1, 0.5))
        assert val == pytest.approx(K_BETA_HALF, rel=1e-12)
        assert val == pytest.approx(7.54247, abs=1e-5)


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
def test_pair_integrals_d1_match_closed_form(beta):
    # the general cube and ball formulas reduce to the d=1 closed forms
    b = beta
    assert cube_pair_integral(1, b) == pytest.approx(
        2 / ((1 - b) * (2 - b)), rel=1e-14, abs=0)
    assert ball_pair_integral(1, b) == pytest.approx(
        2 ** (3 - b) / ((1 - b) * (2 - b)), rel=1e-13, abs=0)


def test_pair_integrals_converged_in_nodes(monkeypatch):
    from riesz_she import noise
    cases = [(d, b) for d in (2, 3) for b in (0.5, 1.0, 1.5, 1.9)]
    base = [cube_pair_integral(d, b) for d, b in cases]
    monkeypatch.setattr(noise, "_NODES", 2 * noise._NODES)
    for (d, b), v in zip(cases, base):
        assert abs(cube_pair_integral(d, b) - v) <= 1e-13


def test_k_beta_d2_frozen_reference():
    # d=2, beta=1 unit disk: exact value 16*pi/3
    assert k_beta("ball", RieszSpec(2, 1.0)) == pytest.approx(
        16 * np.pi / 3, rel=1e-13, abs=0)
    # d=2, beta=1.5: unit square 8.05561 and unit disk 34.0685 by adaptive
    # quadrature, frozen here; 1e6-pair Monte Carlo gave 7.741 and 32.876
    assert cube_pair_integral(2, 1.5) == pytest.approx(8.05561, abs=1e-5)
    assert k_beta("ball", RieszSpec(2, 1.5)) == pytest.approx(
        34.0685, abs=1e-4)
    assert k_beta("box", RieszSpec(2, 1.5)) == pytest.approx(
        2 ** 2.5 * cube_pair_integral(2, 1.5), rel=1e-15, abs=0)


def test_k_beta_ball_d3_pair_density():
    # unit 3-ball pair-distance density 3 r^2 (1 - 3r/4 + r^3/16) on [0, 2],
    # integrated against r^{-beta} term by term
    vol = 4 * np.pi / 3
    for b in (0.5, 1.0, 1.5, 1.9):
        exact = vol ** 2 * 3 * (2 ** (3 - b) / (3 - b)
                                - 0.75 * 2 ** (4 - b) / (4 - b)
                                + 2 ** (6 - b) / (16 * (6 - b)))
        assert k_beta("ball", RieszSpec(3, b)) == \
            pytest.approx(exact, rel=1e-13, abs=0)


def test_limit_covariance_linear_case():
    limit = {t: K_BETA_HALF * v
             for t, v in eta_sq_integrals([0.0, 0.1, 0.2], np.ones(3)).items()}
    C = limit_covariance([0.1, 0.2], limit)
    assert C[0, 0] == pytest.approx(K_BETA_HALF * 0.1, rel=1e-12)
    assert C[0, 1] == pytest.approx(K_BETA_HALF * 0.1, rel=1e-12)
    corr = C[0, 1] / np.sqrt(C[0, 0] * C[1, 1])
    assert corr == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_limit_covariance_psd():
    rng = np.random.default_rng(6)
    tg = np.concatenate([[0.0], np.sort(rng.random(6))])
    limit = {t: 2.0 * v for t, v in
             eta_sq_integrals(tg, rng.standard_normal(len(tg))).items()}
    C = limit_covariance(list(tg[1:]), limit)
    assert np.min(np.linalg.eigvalsh(C)) >= -1e-10


def test_eta_sq_integral_uneven_trapezoid():
    # non-constant eta on an uneven grid: a wrong interval weight or a
    # missing endpoint would change every value below
    tg = [0.0, 0.1, 0.25, 0.3, 0.7]
    eta = [1.0, 2.0, -1.0, 3.0, 0.5]
    integrals = eta_sq_integrals(tg, eta)
    # eta^2 = 1, 4, 1, 9, 0.25; sum of (t_{i+1} - t_i) * (f_i + f_{i+1}) / 2
    hand = {0.0: 0.0,
            0.1: 0.1 * 5 / 2,
            0.25: 0.1 * 5 / 2 + 0.15 * 5 / 2,
            0.3: 0.1 * 5 / 2 + 0.15 * 5 / 2 + 0.05 * 10 / 2,
            0.7: 0.1 * 5 / 2 + 0.15 * 5 / 2 + 0.05 * 10 / 2
            + 0.4 * 9.25 / 2}
    assert list(integrals) == tg
    for t, expected in hand.items():
        assert integrals[t] == pytest.approx(expected, rel=1e-14)
    rng = np.random.default_rng(11)
    for _ in range(20):
        tg = np.concatenate([[0.0], np.sort(rng.random(9))])
        eta = rng.standard_normal(len(tg))
        integrals = eta_sq_integrals(tg, eta)
        for i, t in enumerate(tg):
            assert integrals[t] == float(np.trapezoid(
                eta[: i + 1] ** 2, tg[: i + 1]))


@pytest.fixture(scope="module")
def torus_mean_run():
    # the runner's eta reducer: sigma_lag_means with no lags, whose one
    # column is each field's torus mean of sigma(u)
    lat = Lattice(1, 64, 8.0)
    spec = RieszSpec(1, 0.5)
    cov = build_embedding(lat, spec)
    init = InitialCondition("constant", value=1.0)
    sigma = NonlinearitySpec("linear")
    T, dt = 0.1, 0.0125
    times = [0.0, 0.05, 0.1]
    reducer = functools.partial(sigma_lag_means, sigma=sigma, lag_cells=())
    blocks = simulate(cov, sigma, init, T, dt, seed=31, replica_ids=range(150),
                      reducers={t: (reducer,) for t in times})
    return {t: np.concatenate([blk.reduced[t][0] for blk in blocks])
            for t in times}


def test_estimate_eta_linear(torus_mean_run):
    times, eta = estimate_eta(torus_mean_run)
    assert list(times) == [0.0, 0.05, 0.1]
    assert eta[0] == 1.0  # deterministic start: eta(0) = sigma(1) exactly
    for t, e in zip(times[1:], eta[1:]):
        per_rep = torus_mean_run[t][:, 0]
        se = per_rep.std(ddof=1) / np.sqrt(len(per_rep))
        assert e == per_rep.mean()
        assert abs(e - 1.0) < 3 * se + 1e-12


def test_estimate_eta_degenerate(torus_mean_run):
    deg = NonlinearitySpec("affine", a=1.0, b=-1.0)
    zero = sigma_lag_means(np.ones((1, 64)), deg, ())
    times, eta = estimate_eta({t: np.repeat(zero, len(v), axis=0)
                               for t, v in torus_mean_run.items()})
    assert np.all(eta == 0.0)


def test_translated_region_variance_invariance():
    # the region sum of the field rolled by 12 cells is that of the ball
    # centered at x = 12 h = 3; the noise is stationary, so its variance is
    # that of the ball at the origin
    lat = Lattice(1, 64, 8.0)
    spec = RieszSpec(1, 0.5)
    cov = build_embedding(lat, spec)
    init = InitialCondition("constant", value=1.0)
    sigma = NonlinearitySpec("linear")
    T, dt = 0.1, 0.0125
    region = Region("ball", 2.0)
    idx = region.cells(lat)

    def translated(block):
        rolled = np.roll(block, -12, axis=1)
        return lat.cell_volume * rolled[:, idx].sum(axis=1)

    g0, g1 = [], []
    for blk in simulate(cov, sigma, init, T, dt, seed=55,
                        replica_ids=range(600), reducers={T: (
                            g_r_reducer(init, T, lat, [region]), translated)}):
        g0.extend(blk.reduced[T][0][:, 0])
        g1.extend(blk.reduced[T][1])
    assert len(g0) == len(g1) == 600
    v0, v1 = np.var(g0, ddof=1), np.var(g1, ddof=1)
    # variance of a variance estimate: rel se ~ sqrt(2/N) ~ 6%
    assert abs(np.log(v1 / v0)) < 4 * np.sqrt(2 / 599) * np.sqrt(2)


def test_box_vs_ball_variance_ratio_d2():
    # variance ratio between box and ball averages matches the ratio of
    # the corresponding kernel constants
    lat = Lattice(2, 64, 4.0)
    spec = RieszSpec(2, 1.0)
    cov = build_embedding(lat, spec)
    init = InitialCondition("constant", value=1.0)
    sigma = NonlinearitySpec("linear")
    T, dt = 0.04, 0.002
    R = 1.0
    regions = [Region("ball", R), Region("box", R)]
    blocks = simulate(cov, sigma, init, T, dt, seed=91, replica_ids=range(400),
                      reducers={T: (g_r_reducer(init, T, lat, regions),)})
    gb, gx = np.concatenate([blk.reduced[T][0] for blk in blocks]).T
    k_ball = k_beta("ball", spec)
    k_box = k_beta("box", spec)
    emp_ratio = np.var(gx, ddof=1) / np.var(gb, ddof=1)
    assert emp_ratio == pytest.approx(k_box / k_ball, rel=0.15)
