"""Acceptance suite: twelve criteria on the reference configuration.

Reference configuration: d=1, beta=0.5, sigma(x)=x, u0 = 1, t=0.25,
n=512, L=20 (h=0.078125), N=4000 replicas, fixed seed. dt = 0.05/33 is
the largest step at most h^2/4, the scale of the config's default step,
that divides every record time (h^2/4 itself does not divide 0.25).

Each test prints one CRITERION line. Criteria that the underlying model
genuinely cannot meet at these tolerances fail red by design; see the
decisions ledger for the quantitative analysis.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riesz_she import (InitialCondition, RieszSpec, build_embedding, runner,
                       simulate)
from riesz_she.cli import main as cli_main
from riesz_she.config import parse_config
from riesz_she.observables import eta_sq_integrals
from riesz_she.runner import (EXIT_DEGENERATE, ResultSet, _reducers,
                              collect_samples, run_experiment, run_replicas)
from riesz_she.stats import (functional_cov_check,
                             increment_moment_fit, increment_r_scaling,
                             ks_distance, lemma31_check, rate_fit,
                             scaling_fit, standardize)

SEED = 42
DT = 0.05 / 33
TIMES = [0.1, 0.1 + 4 * DT, 0.1 + 8 * DT, 0.1 + 16 * DT, 0.15, 0.2, 0.25]
R_LIST = [4.0, 8.0, 16.0]
K_BETA = 2 ** 2.5 / 0.75          # 7.54247
VAR_TARGET = 0.25 * K_BETA        # t * k_beta = 1.8856

BASE_CFG = """
kind = %(kind)s
d = 1
beta = 0.5
T = 0.25
dt = %(dt).17g
record_times = %(times)s
R_list = 4, 8, 16
n_replicas = %(n)d
seed = %(seed)d
%(extra_top)s
[lattice]
n = 512
L = 20.0
%(extra)s"""


def make_cfg(kind="clt", n=4000, times=TIMES, extra="", extra_top=""):
    return parse_config(BASE_CFG % {
        "kind": kind, "dt": DT, "n": n, "seed": SEED,
        "times": ", ".join("%.17g" % t for t in times),
        "extra": extra, "extra_top": extra_top})


def report(num, name, passed, detail):
    print("CRITERION %02d %-24s %s  (%s)"
          % (num, name, "PASS" if passed else "FAIL", detail))


@pytest.fixture(scope="module")
def reference_run():
    """One 4000-replica simulation shared by criteria 2-7, on two workers:
    the samples do not depend on the worker count (criterion 12)."""
    import time
    cfg = make_cfg()
    t0 = time.monotonic()
    cov = build_embedding(cfg.lattice, cfg.spec)
    samples, _ = collect_samples(run_replicas(cfg, cov, workers=2), cfg)
    return cfg, samples, time.monotonic() - t0


@pytest.fixture(scope="module")
def clipped_run():
    """Criterion 11: bounded oscillating start, clipped-linear sigma."""
    cfg = make_cfg(extra="\n[sigma]\nkind = clipped-linear\n"
                         "\n[init]\nkind = cosine\noffset = 1.25\n"
                         "amplitude = 0.75\ncycles = 32\n")
    cov = build_embedding(cfg.lattice, cfg.spec)
    return cfg, collect_samples(run_replicas(cfg, cov, workers=2), cfg)[0]


def _ks_by_R(samples, t=0.25):
    return [(R, ks_distance(standardize(samples[R][t]))) for R in R_LIST]


def test_criterion_01_noise_covariance():
    # lag distances h..32h, 1e4 slices, every ratio in [0.9, 1.1]
    cfg = make_cfg(kind="noise-validate", n=10_000,
                   extra_top="lags = 1, 2, 4, 8, 16, 32\n")
    rs = run_experiment(cfg)
    ratios = [r.estimate for r in rs.reports]
    ok = rs.all_passed and rs.wall_seconds < 60.0
    report(1, "noise covariance", ok,
           "ratios %.3f..%.3f over %d lags, %.1f s"
           % (min(ratios), max(ratios), len(ratios), rs.wall_seconds))
    assert ok


def test_criterion_02_variance_limit(reference_run):
    cfg, samples, wall = reference_run
    rel = {}
    for R in R_LIST:
        g = samples[R][0.25]
        nv = float(g.var(ddof=1)) * R ** -1.5
        rel[R] = abs(nv - VAR_TARGET) / VAR_TARGET
    factor = np.sqrt(rel[16.0] + 1.0)  # empirical/predicted sd ratio
    shrinks = rel[16.0] < rel[4.0]
    ok = rel[16.0] <= 0.15 and shrinks and wall < 1200.0
    report(2, "variance limit", ok,
           "rel err R=16 %.3f (tol 0.15), R=4 %.3f; sd factor %.3f"
           % (rel[16.0], rel[4.0], factor))
    assert 0.85 <= factor <= 1.15
    assert shrinks
    assert rel[16.0] <= 0.15, \
        "known red: true lattice value sits 14.53%% above the target " \
        "(scratch moment recursion; its oracle waits on ROADMAP item 1), " \
        "so the 15%% tolerance is a coin flip " \
        "at N=4000; observed %.3f" % rel[16.0]


def test_criterion_03_scaling_exponent(reference_run):
    cfg, samples, _ = reference_run
    pairs = [(R, float(np.sqrt(samples[R][0.25].var(ddof=1))))
             for R in R_LIST]
    slope, _, se = scaling_fit(pairs)
    ok = abs(slope - 0.75) <= 0.05
    report(3, "scaling exponent", ok, "slope %.4f vs 0.75 +- 0.05" % slope)
    assert ok


def test_criterion_04_gaussianity(reference_run):
    cfg, samples, _ = reference_run
    ks16 = dict(_ks_by_R(samples))[16.0]
    ok = ks16 < 0.05
    report(4, "gaussianity (KS)", ok, "KS(R=16, N=4000) = %.4f vs 0.05" % ks16)
    assert ok, \
        "known red: a scratch third-moment recursion (its oracle waits " \
        "on ROADMAP item 1) gives skew(G_16) = 1.16, hence a true KS " \
        "distance near 0.08; " \
        "the unknown rate constant exceeds what the 0.05 tolerance assumes"


def test_criterion_05_rate_direction(reference_run):
    cfg, samples, _ = reference_run
    ks_pairs = _ks_by_R(samples)
    exponent, _, excluded = rate_fit(ks_pairs, cfg.n_replicas)
    floor = 1.63 / np.sqrt(cfg.n_replicas)
    exceptions = sum(1 for (ra, da), (rb, db) in zip(ks_pairs, ks_pairs[1:])
                     if db > da and db > floor)
    ok = exponent <= 0.0 and exceptions <= 1 \
        and ks_pairs[-1][1] < ks_pairs[0][1]
    report(5, "rate direction", ok,
           "exponent %.3f <= 0; KS %s; %d exceptions"
           % (exponent, ["%.4f" % d for _, d in ks_pairs], exceptions))
    assert ok


def test_clt_run_fits_the_rate_of_criterion_05(reference_run):
    # every KS of the reference run lies above the floor, so the clt
    # pipeline fits its rate instead of passing it as all at the floor
    cfg, samples, _ = reference_run
    rs = ResultSet(config=cfg, samples=samples)
    runner._run_clt(cfg, rs)
    rep, = [r for r in rs.reports if r.metric == "ks_rate_exponent"]
    exponent, _, _ = rate_fit(_ks_by_R(samples), cfg.n_replicas)
    assert rep.estimate == exponent and rep.estimate <= 0.0 and rep.passed
    assert rep.note == "one-sided upper-bound rate; 0 floor-gated points"


def test_criterion_06_functional_clt(reference_run):
    cfg, samples, _ = reference_run
    limit = {t: K_BETA * v for t, v in
             eta_sq_integrals([0.0] + TIMES, np.ones(len(TIMES) + 1)).items()}
    reports = functional_cov_check(
        {t: samples[16.0][t] for t in (0.1, 0.2)}, [0.1, 0.2], 16.0,
        limit, d=1, beta=0.5)
    corr = [r for r in reports if r.metric == "fclt_correlation"][0]
    ok = abs(corr.estimate - np.sqrt(0.5)) <= 0.05
    report(6, "functional CLT", ok,
           "corr(G(0.1), G(0.2)) = %.4f vs %.4f +- 0.05"
           % (corr.estimate, np.sqrt(0.5)))
    assert ok


def test_criterion_07_tightness(reference_run):
    cfg, samples, _ = reference_run
    pairs = [(0.1, t) for t in TIMES[1:]]  # gaps 4*dt .. 0.1
    rep = increment_moment_fit(samples[16.0], pairs, p=2)
    ratio = increment_r_scaling(samples[8.0], samples[16.0], (0.1, 0.2), p=2)
    target = 2.0 ** 1.5
    ok = rep.passed and abs(ratio - target) <= 0.2 * target
    report(7, "tightness moments", ok,
           "slope %.3f >= 0.8; R-ratio %.3f vs %.3f +- 20%%"
           % (rep.estimate, ratio, target))
    assert ok


def test_criterion_08_correlation_decay():
    cfg = make_cfg(kind="decay", n=400, times=[0.25],
                   extra_top="store_fields = true\n")
    rs = run_experiment(cfg)
    rep = rs.reports[0]
    ok = rep.passed
    report(8, "correlation decay", ok,
           "envelope max/min %.3f vs <= 5" % rep.estimate)
    assert ok


def test_criterion_09_smoothed_kernel_bound():
    # by scaling, the sup ratio does not depend on y: one check per (d, beta)
    rep = lemma31_check(RieszSpec(1, 0.5))
    ok = rep.passed
    report(9, "smoothed kernel bound", ok,
           "max ratio %.4f, grid-stable; %s" % (rep.estimate, rep.note))
    assert ok
    # pinned by the frozen quadrature oracle
    assert rep.estimate == pytest.approx(1.3743, abs=0.002)


def test_criterion_10_degenerate_regime(tmp_path):
    # sigma(x) = x - 1 and the constant start 1
    cfg = make_cfg(extra="\n[sigma]\nkind = affine\na = 1\nb = -1\n")
    cov = build_embedding(cfg.lattice, cfg.spec)
    gs = []
    for blk in simulate(cov, cfg.sigma, cfg.init, 0.25, DT, SEED, range(3),
                        _reducers(cfg)):
        for g, in blk.reduced.values():
            gs.extend(g.ravel())
    exact_zero = all(g == 0.0 for g in gs)
    cfgfile = tmp_path / "degen.cfg"
    cfgfile.write_text(BASE_CFG % {
        "kind": "clt", "dt": DT, "n": 200, "seed": SEED,
        "times": "0.25", "extra_top": "",
        "extra": "\n[sigma]\nkind = affine\na = 1\nb = -1\n"})
    code = cli_main(["clt", "--config", str(cfgfile)])
    ok = exact_zero and code == EXIT_DEGENERATE
    report(10, "degenerate regime", ok,
           "%d region averages all exactly 0; exit code %d" % (len(gs), code))
    assert ok


def test_criterion_11_bounded_start_comparison(clipped_run):
    cfg, samples = clipped_run
    pairs = [(R, float(np.sqrt(samples[R][0.25].var(ddof=1))))
             for R in R_LIST]
    slope, _, _ = scaling_fit(pairs)
    ks16 = dict(_ks_by_R(samples))[16.0]
    # coupled comparison: ordered constant starts, shared noise slices
    sigma = cfg.sigma
    cov = build_embedding(cfg.lattice, cfg.spec)
    lo_init = InitialCondition("constant", value=0.5)
    hi_init = InitialCondition("constant", value=2.0)
    ordered = True
    for lo, hi in zip(
            simulate(cov, sigma, lo_init, 0.25, DT, SEED, range(5),
                     {t: (np.copy,) for t in TIMES}),
            simulate(cov, sigma, hi_init, 0.25, DT, SEED, range(5),
                     {t: (np.copy,) for t in TIMES})):
        for t in TIMES:
            ordered &= bool(np.all(lo.reduced[t][0] <= hi.reduced[t][0]
                                   + 1e-9))
    ok = abs(slope - 0.75) <= 0.05 and ks16 < 0.05 and ordered
    report(11, "bounded-start regime", ok,
           "slope %.4f; KS(R=16) %.4f vs 0.05; comparison %s"
           % (slope, ks16, "ordered" if ordered else "VIOLATED"))
    assert abs(slope - 0.75) <= 0.05
    assert ordered
    assert ks16 < 0.05, \
        "known red: same finite-R skew as criterion 4 (sigma(u) ~ u here), " \
        "observed KS %.4f" % ks16


DET_CFG = """
kind = clt
d = 1
beta = 0.5
T = 0.04
dt = 0.01
R_list = 0.5, 1, 2
n_replicas = 200
seed = 7

[lattice]
n = 64
L = 4.0
"""
RESULT_FILES = ["samples.csv", "reports.csv", "reports.json",
                "constants.csv", "manifest.json"]


def _fresh_clt_runs(tmp_path, extra_args):
    """Run DET_CFG through one fresh ``python -m riesz_she.cli clt --out``
    process per entry of extra_args; return whether all result files are
    byte-identical across the runs."""
    cfgfile = tmp_path / "det.cfg"
    cfgfile.write_text(DET_CFG)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    outs = []
    for i, extra in enumerate(extra_args):
        out = tmp_path / ("run%d" % i)
        proc = subprocess.run(
            [sys.executable, "-m", "riesz_she.cli", "clt",
             "--config", str(cfgfile), "--out", str(out)] + extra,
            capture_output=True, env=env)
        assert proc.returncode in (0, 1), proc.stderr.decode()
        outs.append(out)
    return all((outs[0] / n).read_bytes() == (out / n).read_bytes()
               for out in outs[1:] for n in RESULT_FILES)


def test_criterion_12_determinism(tmp_path):
    same = _fresh_clt_runs(tmp_path, ([], []))
    report(12, "determinism", same,
           "two fresh processes, %d files byte-identical" % len(RESULT_FILES))
    assert same


def test_criterion_12_worker_count_through_the_cli(tmp_path):
    # the pool path under the command-line entry point, which forks its
    # workers after freezing the collector, writes the same bytes. 1024
    # replicas are two blocks at n = 64, so two workers fork a pool
    from riesz_she.engine import block_size
    assert block_size(parse_config(DET_CFG).lattice) == 512
    assert _fresh_clt_runs(tmp_path, [["--workers", w, "--replicas", "1024"]
                                      for w in ("1", "2")])
