"""Experiment execution: replica scheduling, aggregation, persistence.

Replicas never share mutable state and their random streams are keyed by
(seed, replica_id), so results are independent of worker count and
completion order. simulate returns one BlockResult per block of replicas;
workers step contiguous runs of blocks, which arrive in replica_id order,
and each record time's reductions are joined with one np.concatenate each.
"""

import csv
import functools
import io
import json
import os
import time as _time

import numpy as np

from . import __version__
from .engine import (DegenerateSigmaError, NonlinearitySpec, block_size,
                     mean_field, simulate, time_grid)
from .noise import QUADRATURE_MAX_D, build_embedding, sample_slice
from .observables import (check_margin, constants_rows, estimate_eta,
                          eta_sq_integrals, k_beta, region_averages)
from .stats import (StatsReport, correlation_decay_check,
                    covariance_diagnostic, functional_cov_check,
                    increment_moment_fit, increment_r_scaling, ks_distance,
                    ks_floor, lag_distances, lemma31_check, rate_fit,
                    scaling_fit, sigma_lag_means, standardize,
                    variance_stderr)
from .streams import stream_for

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_DEGENERATE = 2
EXIT_INSTABILITY = 3
EXIT_CONFIG = 4


class ResultSet:
    def __init__(self, config, reports=None, samples=None, reduced=None):
        self.config = config
        self.reports = [] if reports is None else reports
        self.samples = {} if samples is None else samples  # R -> {t -> array}
        self.constants = []
        self.reduced = {} if reduced is None else reduced  # t -> (N, ...)
        self.wall_seconds = 0.0

    @property
    def all_passed(self):
        return all(r.passed for r in self.reports)

    @property
    def exit_code(self):
        return EXIT_PASS if self.all_passed else EXIT_STAT_FAIL


def _run_chunk(args):
    return simulate(*args)


def _reducers(cfg):
    """{record time: (G_R of every region, then what the kind reads of the
    field then, if anything)}; partials, so that they pickle to the
    workers. The mean fields are computed here, before any stepping."""
    lat = cfg.lattice
    kind = ()
    if cfg.kind in ("variance-limit", "fclt") and not cfg.eta_exact:
        # the torus mean of sigma(u), for eta; eta(0) is read off u0
        kind = (functools.partial(sigma_lag_means, sigma=cfg.sigma,
                                  lag_cells=()),)
    cells = [reg.cells(lat) for reg in cfg.regions]
    out = {}
    for t in cfg.record_times:
        mean = mean_field(cfg.init, t, lat).reshape(-1)
        g_r = functools.partial(region_averages, cells=cells,
                                means=[mean[idx] for idx in cells],
                                cell_volume=lat.cell_volume)
        out[t] = (g_r,) + (kind if t > 0 else ())
    if cfg.kind == "decay":
        out[max(out)] += (functools.partial(
            sigma_lag_means, sigma=cfg.sigma, lag_cells=lag_cells(cfg)),)
    return out


def run_replicas(cfg, cov, workers=1):
    """simulate's BlockResults for all replicas, in replica_id order.

    Workers take contiguous runs of blocks of block_size(lattice)
    replicas and reduce record-time fields to G_R and what the kind reads
    (_reducers). One chunk runs here and loads no pool machinery; more
    fork a process pool, whose modules are imported only then.
    """
    reducers = _reducers(cfg)
    B = block_size(cfg.lattice)
    blocks = [range(lo, min(lo + B, cfg.n_replicas))
              for lo in range(0, cfg.n_replicas, B)]
    n_chunks = min(max(workers, 1), len(blocks))
    cuts = [i * len(blocks) // n_chunks for i in range(n_chunks + 1)]
    args = [(cov, cfg.sigma, cfg.init, cfg.T, cfg.dt, cfg.seed,
             [rid for blk in blocks[lo:hi] for rid in blk], reducers)
            for lo, hi in zip(cuts, cuts[1:])]
    if n_chunks <= 1:
        parts = map(_run_chunk, args)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            parts = list(pool.map(_run_chunk, args))
    return [blk for part in parts for blk in part]


def collect_samples(blocks, cfg):
    """{R: {t: G_R over replicas}} and {t: the kind's reduction over
    replicas}, joined from the blocks' reductions in one pass."""
    samples, reduced = {R: {} for R in cfg.R_list}, {}
    for t in cfg.record_times:
        g, *kind = map(np.concatenate,
                       zip(*(blk.reduced[t] for blk in blocks)))
        for r, R in enumerate(cfg.R_list):
            samples[R][t] = g[:, r]
        if kind:
            reduced[t], = kind
    return samples, reduced


def _check_degenerate(cfg):
    if np.all(np.abs(cfg.sigma(cfg.init.field_on(cfg.lattice))) < 1e-14):
        raise DegenerateSigmaError(
            "sigma(u0) = 0 at every cell, so u stays at its mean and every "
            "G_R vanishes")


def _limit_variances(cfg, rs):
    """{t: k * int_0^t eta^2} at 0 and each record time, the limit of
    Var G_R(t) / R^{2d-beta}: eta exact where available, else eta(0) is
    the torus mean of sigma(u0) and eta(t > 0) is estimated from the
    replicas' torus means of sigma(u(t))."""
    times = sorted({0.0, *cfg.record_times})
    if cfg.eta_exact:
        eta = np.full(len(times), float(cfg.sigma(np.float64(cfg.init.value))))
    else:
        eta0 = float(np.mean(cfg.sigma(cfg.init.field_on(cfg.lattice))))
        eta = [eta0, *estimate_eta(rs.reduced)[1]]
    k = k_beta(cfg.region_kind, cfg.spec)
    return {t: k * v for t, v in eta_sq_integrals(times, eta).items()}


# --- per-kind pipelines -----------------------------------------------------

def _run_noise_validate(cfg, rs):
    """Slice i is the first n^d normals of stream (seed, i); slices are
    colored and reduced to lag products block_size(lattice) at a time."""
    cov = build_embedding(cfg.lattice, cfg.spec)
    B, lags = block_size(cfg.lattice), lag_cells(cfg)
    parts = []
    for lo in range(0, cfg.n_replicas, B):
        w = np.empty((min(B, cfg.n_replicas - lo),) + cfg.lattice.shape)
        for i, row in enumerate(w, lo):
            stream_for(cfg.seed, i).standard_normal(out=row)
        parts.append(sigma_lag_means(sample_slice(cov, cfg.dt, w),
                                     NonlinearitySpec("linear"), lags))
    rs.reports.extend(covariance_diagnostic(
        np.concatenate(parts), lags, cov, cfg.dt))


def _run_variance_limit(cfg, rs):
    d, beta = cfg.spec.d, cfg.spec.beta
    t = max(cfg.record_times)
    target = _limit_variances(cfg, rs)[t]
    rel_errors = {}
    for R in sorted(cfg.R_list):
        g = rs.samples[R][t]
        norm_var = float(g.var(ddof=1)) * R ** (beta - 2 * d)
        rel = abs(norm_var - target) / target
        rel_errors[R] = rel
        rs.reports.append(StatsReport(
            metric="normalized_variance",
            params={"R": R, "t": t},
            estimate=norm_var, target=target, tolerance=0.15 * target,
            passed=(R != max(cfg.R_list)) or rel <= 0.15,
            stderr=variance_stderr(g) * R ** (beta - 2 * d),
            note="pass rule binds at largest R only"))
    R_lo, R_hi = min(cfg.R_list), max(cfg.R_list)
    rs.reports.append(StatsReport(
        metric="variance_error_shrinks_with_R",
        params={"R_lo": R_lo, "R_hi": R_hi, "t": t},
        estimate=rel_errors[R_hi], target=rel_errors[R_lo],
        tolerance=float("inf"), passed=rel_errors[R_hi] < rel_errors[R_lo],
        note="one-sided: relative error at R_hi < at R_lo"))


def _run_clt(cfg, rs):
    d, beta = cfg.spec.d, cfg.spec.beta
    t = max(cfg.record_times)
    Rs = sorted(cfg.R_list)
    sig_pairs, ks_pairs = [], []
    for R in Rs:
        g = rs.samples[R][t]
        sig_pairs.append((R, float(np.sqrt(g.var(ddof=1)))))
        ks = ks_distance(standardize(g))
        ks_pairs.append((R, ks))
        rs.reports.append(StatsReport(
            metric="ks_distance", params={"R": R, "t": t},
            estimate=ks, target=0.0, tolerance=0.05,
            passed=(R != max(Rs)) or ks < 0.05,
            note="pass rule binds at largest R only"))
    slope, _, slope_se = scaling_fit(sig_pairs)
    rs.reports.append(StatsReport(
        metric="sigma_scaling_slope", params={"t": t},
        estimate=slope, target=d - beta / 2.0, tolerance=0.05,
        passed=abs(slope - (d - beta / 2.0)) <= 0.05, stderr=slope_se))
    # rate direction: one-sided, floor-gated
    try:
        exponent, exp_se, excluded = rate_fit(ks_pairs, cfg.n_replicas)
        rate_ok = exponent <= 0.0
        note = "one-sided upper-bound rate; %d floor-gated points" \
               % len(excluded)
    except ValueError as exc:
        exponent, exp_se = float("nan"), float("nan")
        rate_ok = True
        note = "all KS at statistical floor (%s); trivially non-increasing" \
               % exc
    rs.reports.append(StatsReport(
        metric="ks_rate_exponent", params={"t": t},
        estimate=exponent, target=-beta / 2.0, tolerance=float("inf"),
        passed=rate_ok, stderr=exp_se, note=note))
    floor = ks_floor(cfg.n_replicas)
    exceptions = sum(1 for (ra, da), (rb, db) in zip(ks_pairs, ks_pairs[1:])
                     if db > da and db > floor)
    rs.reports.append(StatsReport(
        metric="ks_monotone_nonincrease", params={"t": t},
        estimate=float(exceptions), target=0.0, tolerance=1.0,
        passed=exceptions <= 1,
        note="non-increase across R up to one floor-gated exception"))


def _run_fclt(cfg, rs):
    R = max(cfg.R_list)
    rs.reports.extend(functional_cov_check(
        rs.samples[R], cfg.record_times, R, _limit_variances(cfg, rs),
        cfg.spec.d, cfg.spec.beta))


def _run_tightness(cfg, rs):
    d, beta = cfg.spec.d, cfg.spec.beta
    times = sorted(cfg.record_times)
    base = times[0]
    pairs = [(base, t) for t in times[1:]]
    Rs = sorted(cfg.R_list)
    rs.reports.append(increment_moment_fit(rs.samples[Rs[-1]], pairs,
                                           p=cfg.p_moment))
    if len(Rs) >= 2:
        R_lo, R_hi = Rs[-2], Rs[-1]
        ratio = increment_r_scaling(rs.samples[R_lo], rs.samples[R_hi],
                                    (base, times[-1]), p=cfg.p_moment)
        target = (R_hi / R_lo) ** (cfg.p_moment * (d - beta / 2.0))
        rs.reports.append(StatsReport(
            metric="increment_r_scaling",
            params={"R_lo": R_lo, "R_hi": R_hi, "p": cfg.p_moment},
            estimate=ratio, target=target, tolerance=0.2 * target,
            passed=abs(ratio - target) <= 0.2 * target))


def _run_decay(cfg, rs):
    report, rows = correlation_decay_check(
        rs.reduced[max(cfg.record_times)], lag_cells(cfg), cfg.lattice,
        cfg.spec.beta)
    rs.reports.append(report)


def _run_lemma31(cfg, rs):
    for y in cfg.y_list:
        rs.reports.append(lemma31_check(cfg.spec, [y] + [0.0] * (cfg.spec.d - 1)))


def _run_constants(cfg, rs):
    rs.constants = constants_rows(cfg.spec, region_kind=cfg.region_kind)
    for name, d, beta, rk, val, se, method in rs.constants:
        rs.reports.append(StatsReport(
            metric="constant_%s" % name,
            params={"d": d, "beta": beta, "region": rk, "method": method},
            estimate=val, target=val, tolerance=1e-12,
            passed=True, stderr=se))


# kind: (pipeline(cfg, rs), which appends reports; whether it steps the
# equation, so run_experiment runs the replicas first; fewest R_list radii:
# clt fits a slope through 3, variance-limit compares 2; fewest replicas).
KINDS = {
    "noise-validate": (_run_noise_validate, False, 0, 100),
    "variance-limit": (_run_variance_limit, True, 2, 100),
    "clt": (_run_clt, True, 3, 100),
    "fclt": (_run_fclt, True, 0, 100),
    "tightness": (_run_tightness, True, 0, 1),
    "decay": (_run_decay, True, 0, 100),
    "lemma31": (_run_lemma31, False, 0, 1),
    "constants": (_run_constants, False, 0, 1),
}


def lag_cells(cfg):
    """Lag offsets in cells along the first axis: the lags key, else for
    decay about 12 log-spaced from 2 cells to L/4, for noise-validate
    0 and the powers of two up to min(32, n/2)."""
    lags, lat = cfg.lags, cfg.lattice
    if lags is None and cfg.kind == "decay":
        hi = int(lat.L / 4.0 / lat.h)
        lags = sorted(set(int(round(v)) for v in np.geomspace(2, hi, 12)))
    elif lags is None:
        lags = [k for k in (0, 1, 2, 4, 8, 16, 32) if k <= lat.n // 2]
    return [(k,) + (0,) * (cfg.spec.d - 1) for k in lags]


def check_config(cfg):
    """Raise ValueError at the first rule of cfg's kind that cfg breaks."""
    if cfg.kind not in KINDS:
        raise ValueError("unknown experiment kind %r (choose from %s)"
                         % (cfg.kind, ", ".join(KINDS)))
    _, steps, min_radii, need = KINDS[cfg.kind]
    if cfg.T < 0:
        raise ValueError("T must be nonnegative, got %g" % cfg.T)
    if cfg.dt <= 0:
        raise ValueError("dt must be positive, got %g" % cfg.dt)
    if cfg.region_kind not in ("ball", "box"):
        raise ValueError("region_kind must be ball or box, got %r"
                         % (cfg.region_kind,))
    # the noise embedding and box constants integrate over the unit cell
    if cfg.spec.d > QUADRATURE_MAX_D and (steps or cfg.kind == "noise-validate"
            or (cfg.kind, cfg.region_kind) == ("constants", "box")):
        raise ValueError("d must be at most %d for kind %r, whose cell "
                         "quadrature would not fit in memory; got d = %d"
                         % (QUADRATURE_MAX_D, cfg.kind, cfg.spec.d))
    # stream keys hold the seed in 64 bits; wider seeds would alias
    if not 0 <= cfg.seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64), got %d" % cfg.seed)
    if cfg.kind in ("noise-validate", "decay") and cfg.lags == []:
        raise ValueError("lags is empty; kind %r needs at least one lag"
                         % (cfg.kind,))
    if steps:
        if cfg.T <= 0:
            raise ValueError("T must be positive for kind %r" % (cfg.kind,))
        if not cfg.R_list:
            raise ValueError("R_list is required for kind %r" % (cfg.kind,))
        if not cfg.record_times:
            raise ValueError("record_times is empty; kind %r needs at least "
                             "one record time" % (cfg.kind,))
        _, record_steps = time_grid(cfg.T, cfg.dt, cfg.record_times)
        for reg in cfg.regions:
            reg.cells(cfg.lattice)
        check_margin(cfg.lattice, cfg.regions, cfg.T)
        if cfg.kind == "decay":
            try:
                lag_distances(lag_cells(cfg), cfg.lattice)
            except ValueError as exc:
                raise ValueError(str(exc) + (
                    "" if cfg.lags is not None else "; these are the default "
                    "lags for n and L: set lags or refine the lattice"))
        # G_R(0) = 0, and fclt divides by Var G_R(t) at every record time,
        # clt and variance-limit at the last one
        if (cfg.kind == "fclt" and 0 in record_steps) or (
                cfg.kind in ("clt", "variance-limit")
                and max(record_steps, default=0) == 0):
            raise ValueError("kind %r needs its record times after t = 0, "
                             "where every G_R is 0" % (cfg.kind,))
    if len(set(cfg.R_list)) < len(cfg.R_list):
        raise ValueError("R_list repeats a radius: %s"
                         % ", ".join("%g" % R for R in cfg.R_list))
    if len(cfg.R_list) < min_radii:
        raise ValueError("%s needs >= %d R_list values, got %d"
                         % (cfg.kind, min_radii, len(cfg.R_list)))
    if cfg.kind == "fclt" and len(cfg.record_times) < 2:
        raise ValueError("fclt needs at least two record times")
    if cfg.kind == "tightness":
        times = sorted(cfg.record_times)
        gaps = np.subtract(times[1:], times[:1])  # from the base time
        if len(gaps) < 4:
            raise ValueError("tightness needs a base time plus >= 4 gap "
                             "times")
        if gaps.max() / gaps.min() < 10.0 - 1e-9:
            raise ValueError("tightness gaps must span a decade")
        if cfg.p_moment not in (2, 4):
            raise ValueError("p_moment must be 2 or 4, got %d" % cfg.p_moment)
    if cfg.kind == "lemma31" and not (
            cfg.y_list and all(0 < abs(y) < np.inf for y in cfg.y_list)):
        raise ValueError("lemma31 needs y_list of nonzero finite values")
    # an exact eta is not estimated: variance-limit then needs a sample
    # variance, fclt a full-rank covariance over its record times
    if cfg.kind in ("variance-limit", "fclt") and cfg.eta_exact:
        need = 2 if cfg.kind == "variance-limit" else len(cfg.record_times) + 1
    if cfg.n_replicas < need:
        raise ValueError("kind %r needs n_replicas >= %d, got %d"
                         % (cfg.kind, need, cfg.n_replicas))


def run_experiment(cfg, workers=1):
    if cfg.kind not in KINDS:
        raise ValueError("unknown kind %r" % (cfg.kind,))
    t0 = _time.monotonic()
    pipeline, steps = KINDS[cfg.kind][:2]
    rs = ResultSet(config=cfg)
    if steps:
        _check_degenerate(cfg)
        cov = build_embedding(cfg.lattice, cfg.spec)
        rs.samples, rs.reduced = collect_samples(
            run_replicas(cfg, cov, workers=workers), cfg)
    pipeline(cfg, rs)
    rs.wall_seconds = _time.monotonic() - t0
    return rs


# --- persistence -------------------------------------------------------------

def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _csv_text(header, rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_results(rs, outdir):
    """Write samples/reports/constants/manifest; returns the file list.

    Output bytes are a pure function of (config, seed): no timestamps.
    samples.csv is joined by hand, not through csv.writer and _fmt, which
    take about twice as long on its tens of thousands of rows.
    """
    os.makedirs(outdir, exist_ok=True)
    cfg = rs.config
    rows = [rep.as_row() for rep in rs.reports]
    texts = {
        "samples.csv": "replica_id,R,t,G_R\r\n" + "".join(
            "%d,%.17g,%.17g,%.17g\r\n" % (rid, R, t, v)
            for R in sorted(rs.samples)
            for t in sorted(rs.samples[R])
            for rid, v in enumerate(rs.samples[R][t].tolist())),
        "reports.csv": _csv_text(  # as_row's columns, in its order
            ["metric", "params", "estimate", "stderr", "target",
             "tolerance", "pass"],
            [map(_fmt, row.values()) for row in rows]),
        "reports.json": _json_text({
            "distance_note": "Kolmogorov distance stands in for total "
                             "variation; both obey the same rate bound.",
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
            "n_replicas": cfg.n_replicas,
            "reports": [dict(row, note=rep.note)
                        for row, rep in zip(rows, rs.reports)]}),
        "constants.csv": _csv_text(
            ["name", "d", "beta", "region_kind", "value", "stderr",
             "method"],
            [[name, d, _fmt(float(beta)), rk, _fmt(float(val)),
              _fmt(float(se)), method]
             for name, d, beta, rk, val, se, method in rs.constants]),
    }
    texts["manifest.json"] = _json_text({
        "config": cfg.canonical_text(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "versions": {"riesz_she": __version__, "numpy": np.__version__},
        "files": list(texts)})
    written = [os.path.join(outdir, name) for name in texts]
    for path, text in zip(written, texts.values()):
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return written
