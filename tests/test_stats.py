import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riesz_she import (DegenerateSigmaError, Lattice, NonlinearitySpec,
                       RieszSpec, build_embedding, limit_covariance,
                       sample_slice)
from riesz_she.observables import eta_sq_integrals
from riesz_she.stats import (_KUMMER_MAX_Z, KS_FLOOR_1PCT, StatsReport,
                             _gaussian_smoothed_kernel, _hyp1f1_neg, _linfit,
                             _ndtr,
                             correlation_decay_check, functional_cov_check,
                             increment_moment_fit, increment_r_scaling,
                             ks_distance, lemma31_check, rate_fit,
                             scaling_fit, sigma_lag_means, standardize,
                             variance_stderr)
from riesz_she.streams import stream_for


def normals(lat, seed, replica_id):
    """A replica's first step of standard normals, as noise-validate draws."""
    return stream_for(seed, replica_id).standard_normal(lat.shape)

K_BETA_HALF = 2 ** 2.5 / 0.75


def test_standardize_empirical():
    rng = np.random.default_rng(1)
    z = standardize(3.0 * rng.standard_normal(5000))
    assert z.var(ddof=1) == pytest.approx(1.0, rel=1e-12)


def test_standardize_degenerate_and_bad_mode():
    with pytest.raises(DegenerateSigmaError,
                       match="sample variance 0 is below the 1e-12 floor"):
        standardize(np.zeros(200))


def test_ks_distance_calibration_large_sample():
    rng = np.random.default_rng(2026)
    z = rng.standard_normal(100_000)
    # 0.00617 ~= 1.95 / sqrt(1e5): the 0.1% quantile of the null KS
    assert ks_distance(z) < 0.00617


def test_ks_distance_same_floats_as_norm_cdf():
    from scipy.stats import norm
    rng = np.random.default_rng(20190307)
    for n in (100, 257, 4000):
        x = np.sort(rng.standard_normal(n))
        cdf = norm.cdf(x)
        i = np.arange(1, n + 1)
        old = float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))
        assert ks_distance(x) == old


def test_ks_distance_point_mass():
    assert ks_distance(np.zeros(1000)) == pytest.approx(0.5)


def test_ks_distance_shifted_mean():
    # Phi(0.3) - Phi(0) = 0.1179 is the KS distance of N(0.3, 1) to N(0, 1)
    rng = np.random.default_rng(7)
    z = rng.standard_normal(200_000) + 0.3
    from scipy.stats import norm
    assert ks_distance(z) == pytest.approx(norm.cdf(0.3) - 0.5, abs=0.01)


def test_ks_distance_needs_samples():
    with pytest.raises(ValueError, match="100"):
        ks_distance(np.zeros(50))


def test_ks_floor_calibration():
    # under the null, KS * sqrt(N) exceeds the 1% floor about 1% of the time
    n, runs = 500, 1000
    rng = np.random.default_rng(99)
    floor = KS_FLOOR_1PCT / np.sqrt(n)
    exceed = sum(ks_distance(rng.standard_normal(n)) > floor
                 for _ in range(runs))
    assert exceed <= 25  # binomial(1000, 0.01): P(X > 25) < 1e-9


def test_scaling_fit_exact():
    pairs = [(R, 3.0 * R ** 0.75) for R in (2.0, 4.0, 8.0, 16.0)]
    slope, intercept, se = scaling_fit(pairs)
    assert slope == pytest.approx(0.75, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_scaling_fit_errors():
    with pytest.raises(ValueError, match=">= 3"):
        scaling_fit([(2.0, 1.0), (4.0, 2.0)])
    with pytest.raises(ValueError, match="non-positive"):
        scaling_fit([(2.0, 1.0), (4.0, 0.0), (8.0, 2.0)])


def test_linfit_same_floats_as_linregress():
    from scipy.stats import linregress
    rng = np.random.default_rng(7)
    for n in [2, 3] * 50 + list(range(4, 13)) * 20:
        x = np.log(np.sort(rng.uniform(0.5, 64.0, n)))
        y = rng.normal(0.4 * x, rng.uniform(0.0, 0.3))
        res = linregress(x, y)
        assert _linfit(x, y) == (res.slope, res.intercept, res.stderr)
    with pytest.raises(ValueError, match="all x values are identical"):
        _linfit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])


def test_rate_fit_exact_and_floor():
    pairs = [(R, 0.5 * R ** -0.25) for R in (4.0, 8.0, 16.0)]
    slope, se, excluded = rate_fit(pairs, n_replicas=4000)
    assert slope == pytest.approx(-0.25, abs=1e-12)
    assert excluded == []
    # one point below the floor 1.63/sqrt(4000) = 0.0258 gets excluded
    pairs_floored = pairs[:2] + [(16.0, 0.01)]
    slope2, se2, excluded2 = rate_fit(pairs_floored, n_replicas=4000)
    assert excluded2 == [(16.0, 0.01)]
    # two points go through _linfit like any other fit, and leave no
    # residual, so the slope has no stderr
    assert slope2 == _linfit(np.log([4.0, 8.0]),
                             np.log([pairs[0][1], pairs[1][1]]))[0]
    assert np.isnan(se2)
    with pytest.raises(ValueError, match="fewer than 2"):
        rate_fit([(4.0, 0.001), (8.0, 0.001)], n_replicas=4000)


def test_variance_stderr_by_hand():
    # g = (0, 0, 0, 4): mean 1, squared deviations (1, 1, 1, 9) with mean 3
    # and sd (ddof=1) sqrt((4 + 4 + 4 + 36) / 3) = 4, so 4 / sqrt(4) = 2;
    # the Gaussian formula var * sqrt(2/(N-1)) gives 4 * 0.816 = 3.27
    assert variance_stderr([0.0, 0.0, 0.0, 4.0]) == 2.0
    # skewed: (0, 0, 0, 0, 0, 6) has mean 1, deviations^2 (1, 1, 1, 1, 1,
    # 25), their mean 5 and sd sqrt((5 * 16 + 400) / 5) = sqrt(96)
    assert variance_stderr([0.0] * 5 + [6.0]) == \
        pytest.approx(np.sqrt(96.0) / np.sqrt(6.0), rel=1e-15)


def test_increment_moment_fit_brownian():
    rng = np.random.default_rng(11)
    times = [0.0] + list(0.01 * 2.0 ** np.arange(0, 5))  # gaps span 16x
    n = 20_000
    samples = {0.0: np.zeros(n)}
    prev_t, prev = 0.0, np.zeros(n)
    for t in times[1:]:
        prev = prev + np.sqrt(t - prev_t) * rng.standard_normal(n)
        samples[t] = prev
        prev_t = t
    pairs = [(0.0, t) for t in times[1:]]
    rep2 = increment_moment_fit(samples, pairs, p=2)
    assert rep2.passed and rep2.estimate == pytest.approx(1.0, abs=0.05)
    rep4 = increment_moment_fit(samples, pairs, p=4)
    assert rep4.passed and rep4.estimate == pytest.approx(2.0, abs=0.1)
    assert rep2.note == "one-sided: slope >= 0.8"
    # a t = s pair and an increment below the 1e-300 floor are skipped, and
    # the note names the second
    samples[0.5] = samples[times[-1]]
    rep = increment_moment_fit(samples, [(0.0, 0.0)] + pairs
                               + [(times[-1], 0.5)], p=2)
    assert (rep.estimate, rep.stderr) == (rep2.estimate, rep2.stderr)
    assert rep.note == ("one-sided: slope >= 0.8; (0.16, 0.5) below the "
                        "1e-300 floor, excluded")


def test_increment_moment_fit_errors():
    n = 500
    samples = {t: np.full(n, t) for t in (0.0, 0.1, 0.2, 0.3, 0.4)}
    with pytest.raises(ValueError, match="decade"):
        increment_moment_fit(samples, [(0.0, t) for t in (0.1, 0.2, 0.3, 0.4)])
    with pytest.raises(ValueError, match="p must be"):
        increment_moment_fit(samples, [(0.0, 0.1)], p=3)
    with pytest.raises(ValueError, match="need >= 4 usable increment gaps, "
                                         "got 3"):
        increment_moment_fit(samples, [(0.0, t) for t in (0.1, 0.2, 0.3)])


def test_increment_r_scaling_ratio():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(10_000)
    lo = {0.0: np.zeros_like(base), 0.1: base}
    hi = {0.0: np.zeros_like(base), 0.1: 4.0 * base}
    assert increment_r_scaling(lo, hi, (0.0, 0.1), p=2) == \
        pytest.approx(16.0, rel=1e-12)


LIMIT_HALF = {t: K_BETA_HALF * v for t, v in
              eta_sq_integrals([0.0, 0.1, 0.2], np.ones(3)).items()}


def test_functional_cov_check_synthetic():
    times = [0.1, 0.2]
    C = limit_covariance(times, LIMIT_HALF)
    rng = np.random.default_rng(4)
    X = rng.multivariate_normal(np.zeros(2), C, size=40_000)
    samples = {t: X[:, i] for i, t in enumerate(times)}  # R normalization = 1
    reports = functional_cov_check(samples, times, R=1.0,
                                   limit=LIMIT_HALF, d=1, beta=0.5)
    assert all(r.passed for r in reports)
    corr = [r for r in reports if r.metric == "fclt_correlation"]
    assert corr[0].target == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_functional_cov_check_detects_mismatch():
    times = [0.1, 0.2]
    rng = np.random.default_rng(5)
    samples = {t: rng.standard_normal(20_000) for t in times}  # independent
    reports = functional_cov_check(samples, times, R=1.0,
                                   limit=LIMIT_HALF, d=1, beta=0.5)
    corr = [r for r in reports if r.metric == "fclt_correlation"]
    assert not corr[0].passed  # correlation ~0 vs target 0.707
    # one sample at both times: no correlation to compare
    samples[0.2] = samples[0.1]
    with pytest.raises(ValueError, match="singular empirical covariance"):
        functional_cov_check(samples, times, R=1.0, limit=LIMIT_HALF, d=1,
                             beta=0.5)
    # one time: no covariance between times to compare
    with pytest.raises(ValueError, match="need at least two times"):
        functional_cov_check(samples, [0.1], R=1.0, limit=LIMIT_HALF, d=1,
                             beta=0.5)


def test_correlation_decay_on_noise_slices():
    # slices have exact covariance dt * dist^{-beta}, so the envelope
    # |Psi| * dist^beta is flat across lags
    lat = Lattice(1, 128, 16.0)
    spec = RieszSpec(1, 0.5)
    cov = build_embedding(lat, spec)
    lags = [4, 6, 8, 12, 16]
    slices = np.stack([sample_slice(cov, 1.0, normals(lat, 17, i))
                       for i in range(2000)])
    lag_means = sigma_lag_means(slices, NonlinearitySpec("linear"), lags)
    rep, rows = correlation_decay_check(lag_means, lags, lat, spec.beta)
    assert rep.passed
    assert rep.estimate < 1.5


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32)], ids=["d1", "d2"])
def test_sigma_lag_means_rows_do_not_depend_on_the_block(d, n):
    # each row is that of the row as a block of one, and that of the row's
    # own field
    lags = [(2,) + (0,) * (d - 1), (3,) * d]
    sigma = NonlinearitySpec("sine-affine", a=0.5, b=0.8, c=0.1)
    block = np.random.default_rng(6).standard_normal((7,) + (n,) * d)
    rows = sigma_lag_means(block, sigma, lags)
    assert rows.shape == (7, 1 + len(lags))
    axes = tuple(range(d))
    for i in range(7):
        assert np.array_equal(rows[i],
                              sigma_lag_means(block[i:i + 1], sigma, lags)[0])
        su = sigma(block[i])
        alone = [su.mean()] + [(su * np.roll(su, lag, axis=axes)).mean()
                               for lag in lags]
        assert np.array_equal(rows[i], alone)


def test_correlation_decay_degenerate_sigma():
    lat = Lattice(1, 64, 8.0)
    deg = NonlinearitySpec("affine", a=1.0, b=-1.0)
    lag_means = sigma_lag_means(np.ones((200, 64)), deg, [2, 4, 8])
    rep, rows = correlation_decay_check(lag_means, [2, 4, 8], lat, 0.5)
    assert rep.passed and rep.estimate == 1.0
    # a zero in an envelope that is not all zero: max/min is infinite
    lag_means = np.ones((200, 4))
    lag_means[:, 3] = 2.0  # Psi - eta^2 is 0 at lags 2 and 4, 1 at lag 8
    rep, rows = correlation_decay_check(lag_means, [2, 4, 8], lat, 0.5)
    assert not rep.passed and rep.estimate == float("inf")


def test_correlation_decay_lag_window():
    lat = Lattice(1, 64, 8.0)  # h = 0.25, window [0.5, 2.0]
    lag_means = np.ones((200, 2))  # eta_hat and one lag product per replica
    with pytest.raises(ValueError, match="outside"):
        correlation_decay_check(lag_means, [1], lat, 0.5)  # dist 0.25 < 2h
    with pytest.raises(ValueError, match="outside"):
        correlation_decay_check(lag_means, [16], lat, 0.5)  # dist 4 > L/4
    with pytest.raises(ValueError, match="100 replicas"):
        correlation_decay_check(lag_means[:20], [8], lat, 0.5)
    # one lag alone, or one at half the largest distance or more, would
    # make the envelope's max/min 1 whatever the data
    with pytest.raises(ValueError, match="fewer than 2"):
        correlation_decay_check(lag_means, [8], lat, 0.5)
    with pytest.raises(ValueError, match="fewer than 2"):
        correlation_decay_check(np.ones((200, 3)), [2, 8], lat, 0.5)


def test_lemma31_frozen_reference():
    # independent quadrature oracle (d=1, beta=0.5, y=1): the max over s of
    # E|1 + sqrt(s) Z|^{-1/2} / 1 is 1.3743, attained near s ~ 1.9, and the
    # small-s ratio tends to 1
    rep = lemma31_check(RieszSpec(1, 0.5), [1.0])
    assert rep.passed
    assert rep.estimate == pytest.approx(1.3743, abs=0.002)
    assert "small-s ratio 1.000" in rep.note


def test_lemma31_scale_invariance():
    # the s grid scales with |y|^2, so every y reports the sup of y = 1;
    # y = 0.01 and 100 were outside a fixed grid's reach
    unit = lemma31_check(RieszSpec(1, 0.5), [1.0]).estimate
    g = np.logspace(-3, 3, 61)
    peak = g[np.argmax(_gaussian_smoothed_kernel(1.0, g, 0.5, 1))]
    for y in (0.01, 0.5, 2.0, 100.0):
        rep = lemma31_check(RieszSpec(1, 0.5), [y])
        assert rep.passed
        assert rep.estimate == unit
        assert "small-s ratio 1.000" in rep.note
        # independent check of the scaling: quadrature at |y| = y, at the
        # grid point of the sup, s = y^2 * g
        assert _quad_kernel_1d(y, y * y * peak, 0.5) * y ** 0.5 == \
            pytest.approx(unit, rel=1e-7)


def test_lemma31_rejects_origin():
    # and a y with no length: its ratios would be those of |y| = 1
    for y in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="nonzero and finite"):
            lemma31_check(RieszSpec(1, 0.5), [y])


def _quad_kernel_1d(y, s, beta):
    """E|y + sqrt(s) Z|^{-beta} in d=1, by quad across the singularity."""
    from scipy.integrate import quad
    ss = np.sqrt(s)
    f = lambda z: abs(y + ss * z) ** (-beta) * np.exp(-z * z / 2) \
        / np.sqrt(2 * np.pi)
    sing = -y / ss
    pts = [sing] if -30.0 < sing < 30.0 else None
    return quad(f, -30.0, 30.0, points=pts, limit=400)[0]


def _rice_kernel_2d(r_y, s, beta):
    """E|y + sqrt(s) Z|^{-beta} in d=2: |y + sqrt(s) Z| is Rice distributed
    with density (r/s) exp(-(r - |y|)^2/(2s)) i0e(r|y|/s)."""
    from scipy.integrate import quad
    from scipy.special import i0e
    f = lambda r: r ** (-beta) * (r / s) \
        * np.exp(-(r - r_y) ** 2 / (2 * s)) * i0e(r * r_y / s)
    hi = r_y + 40.0 * np.sqrt(s)
    return quad(f, 0.0, hi, points=[r_y], limit=400,
                epsabs=0.0, epsrel=1e-13)[0]


def test_smoothed_kernel_matches_quad_in_d1():
    s = np.logspace(-3, 3, 13)
    for beta in (0.25, 0.5, 0.9):
        for y in (0.5, 1.0, 2.0):
            oracle = [_quad_kernel_1d(y, si, beta) for si in s]
            assert _gaussian_smoothed_kernel(y, s, beta, 1) == \
                pytest.approx(oracle, rel=1e-7, abs=0)


def test_smoothed_kernel_matches_rice_in_d2():
    s = np.logspace(-2, 2, 9)
    for beta in (0.5, 1.5):
        for r_y in (0.5, 1.0, 2.0):
            oracle = [_rice_kernel_2d(r_y, si, beta) for si in s]
            assert _gaussian_smoothed_kernel(r_y, s, beta, 2) == \
                pytest.approx(oracle, rel=1e-10, abs=0)


def test_smoothed_kernel_large_s_in_d3():
    # y is negligible against sqrt(s) Z: s^{-beta/2} E|Z|^{-beta}, where
    # E|Z|^{-beta} = 2^{-beta/2} Gamma((3-beta)/2) / Gamma(3/2) in d=3; the
    # relative correction is beta |y|^2 / (6 s) < 1e-13 on this grid
    from math import gamma
    s = np.array([1e13, 1e15, 1e17])
    for beta in (0.5, 1.5):
        exact = s ** (-beta / 2) * 2 ** (-beta / 2) \
            * gamma((3 - beta) / 2) / gamma(1.5)
        assert _gaussian_smoothed_kernel(1.0, s, beta, 3) == \
            pytest.approx(exact, rel=1e-12, abs=0)


def test_lemma31_passes_in_d2():
    rep = lemma31_check(RieszSpec(2, 1.5), [1.0, 0.0])
    assert rep.passed
    assert rep.estimate == pytest.approx(
        max(_rice_kernel_2d(1.0, s, 1.5) for s in np.logspace(-3, 3, 61)),
        rel=1e-10)


def test_stats_report_as_row():
    rep = StatsReport(metric="m", estimate=1.0, target=2.0, tolerance=0.1,
                      passed=False, params={"R": 4.0, "t": 0.1})
    row = rep.as_row()
    assert row["metric"] == "m"
    assert row["params"] == "R=4.0;t=0.1"
    assert row["pass"] is False
    assert row["stderr"] == ""


SMALL_CLT = """
kind = clt
d = 1
beta = 0.5
T = 0.04
dt = 0.01
R_list = 0.5, 1, 2
n_replicas = 100
seed = 7
y_list = 0.5, 1

[lattice]
n = 32
L = 4.0
"""


def _last_line_after(code):
    """The last line that code prints when run in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]  # after anything code prints


def _modules_after(code, packages=("scipy",)):
    """The loaded modules under the top-level packages, after running code
    in a fresh interpreter, as the printed sorted list."""
    return _last_line_after(
        code + "\nimport sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in %r))"
        % (tuple(packages),))


def test_cli_import_loads_no_scipy():
    # the normal CDF and the 1F1 are numpy/math ports, so no runtime path
    # imports scipy
    assert _modules_after("import riesz_she.cli") == "[]"


def test_cli_import_loads_no_dataclasses_or_copy():
    # the package's classes are plain classes, so no code is generated at
    # import; numpy and numpy.random load neither module themselves
    assert _modules_after("import riesz_she.cli",
                          ("dataclasses", "copy")) == "[]"


def test_one_worker_run_loads_no_pool_modules(tmp_path):
    # the process pool is imported only when a run forks workers; the byte
    # tests comparing 1 and 2 workers cover the pool path
    pool = ("concurrent", "multiprocessing")
    assert _modules_after("import riesz_she.cli", pool) == "[]"
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CLT)
    assert _modules_after("""
from riesz_she.cli import main
assert main(["clt", "--config", %r, "--out", %r, "--workers", "1"]) in (0, 1)
""" % (str(cfg), str(tmp_path / "out")), pool) == "[]"
    assert (tmp_path / "out" / "samples.csv").exists()


def test_cli_main_freezes_what_the_import_left_alive(tmp_path):
    # main is a process entry point: everything alive when it is called
    # moves to the permanent generation, so exit collects none of it
    cfg = tmp_path / "constants.cfg"
    cfg.write_text("kind = constants\nd = 1\nbeta = 0.5\n"
                   "[lattice]\nn = 4\nL = 1.0\n")
    frozen, alive = map(int, _last_line_after("""
import gc
import riesz_she.cli
gc.collect()  # no cyclic garbage left for a collection before main to free
alive = len(gc.get_objects())
assert riesz_she.cli.main(["constants", "--config", %r]) == 0
print(gc.get_freeze_count(), alive)
""" % str(cfg)).split())
    assert frozen >= alive > 0


def test_constants_and_embedding_load_no_scipy():
    # the kernel constants are numpy formulas in every dimension
    assert _modules_after("""
from riesz_she import Lattice, RieszSpec, build_embedding, k_beta
from riesz_she.config import parse_config
from riesz_she.runner import run_experiment
build_embedding(Lattice(2, 32, 4.0), RieszSpec(2, 1.5))
for d in (2, 3):
    for kind in ("ball", "box"):
        k_beta(kind, RieszSpec(d, 1.5))
rs = run_experiment(parse_config(
    "kind = constants\\nd = 1\\nbeta = 0.5\\n[lattice]\\nn = 4\\nL = 1.0\\n"))
assert rs.constants
""") == "[]"


def test_ks_distance_and_lemma31_load_no_scipy():
    # the normal CDF and the 1F1 are numpy/math ports
    assert _modules_after("""
import numpy as np
from riesz_she import RieszSpec, ks_distance, lemma31_check
assert lemma31_check(RieszSpec(1, 0.5), [1.0]).passed
assert lemma31_check(RieszSpec(3, 1.9), [1.0, 0.0, 0.0]).passed
assert ks_distance(np.random.default_rng(1).standard_normal(4000)) < 0.05
""") == "[]"


def test_clt_and_lemma31_run_with_scipy_blocked(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CLT)
    # a None entry in sys.modules makes every scipy import an ImportError
    assert _modules_after("""
import sys
sys.modules["scipy"] = None
from riesz_she.cli import main
for kind in ("clt", "lemma31"):
    assert main([kind, "--config", %r, "--out", %r]) in (0, 1), kind
""" % (str(cfg), str(tmp_path / "out"))) == "['scipy']"
    assert (tmp_path / "out" / "reports.csv").read_text().count(
        "lemma31_max_ratio") == 2


def test_ndtr_same_floats_as_scipy():
    from scipy.special import ndtr
    rng = np.random.default_rng(1937)
    # cephes splits erf from erfc at x = +-1, _ndtr at x = +-sqrt(2);
    # x = +-8 sqrt(2) switches erfc's rational form, and past +-37.68
    # exp(-x^2/2) underflows below exp(-MAXLOG)
    edges = [0.0, 1.0, -1.0, 8.0 * np.sqrt(2.0), -8.0 * np.sqrt(2.0),
             37.5, -37.5, np.sqrt(2.0 * 709.782712893384),
             -np.sqrt(2.0 * 709.782712893384), np.sqrt(2.0), -np.sqrt(2.0)]
    near = []
    for e in edges:  # 64 floats on either side of each edge
        up, down = [e], [e]
        for _ in range(64):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], -np.inf))
        near += up + down
    x = np.concatenate([rng.uniform(-40.0, 40.0, 100_000),
                        rng.standard_normal(20_000),
                        np.linspace(-40.0, 40.0, 80_001), near,
                        [np.inf, -np.inf, 1e300, -1e300, np.nan]])
    got, want = _ndtr(x), ndtr(x)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), x[~same][:10]


@pytest.mark.parametrize("d, betas", [(1, (0.25, 0.5, 0.9)),
                                      (2, (0.5, 1.0, 1.5)),
                                      (3, (0.5, 1.0, 1.5, 1.9))])
def test_hyp1f1_neg_matches_scipy(d, betas):
    from scipy.special import hyp1f1
    # both sides of the switch from Kummer's series to the large-z expansion
    z = np.concatenate([np.linspace(0.0, 2000.0, 20_001),
                        np.logspace(-6.0, 3.3, 2000),
                        _KUMMER_MAX_Z + np.linspace(-5.0, 5.0, 2001)])
    for beta in betas:
        a, b = beta / 2.0, d / 2.0
        assert _hyp1f1_neg(a, b, z) == \
            pytest.approx(hyp1f1(a, b, -z), rel=1e-13, abs=0)
