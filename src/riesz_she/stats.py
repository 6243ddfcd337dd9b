"""Statistical checks of the limit theorems on simulated samples.

Distances to the Gaussian limit are measured in Kolmogorov distance;
total variation is not consistently estimable from a few thousand
samples, and the theory gives the same rate for both. Rate checks are
one-sided because the theoretical rate is an upper bound.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import DegenerateSigmaError
from .observables import limit_covariance

# Order-statistic floors for the KS estimator on exact-normal input.
KS_FLOOR_1PCT = 1.63    # / sqrt(N)
FCLT_CORR_TOL = 0.05          # |empirical - limit| correlation per time pair
INCREMENT_SLOPE_FACTOR = 0.8  # increment slope must reach this * p/2
DECAY_MAX_MIN_RATIO = 5.0     # max/min of the decay envelope
LEMMA31_REFINE_TOL = 0.02     # relative change of the max under refinement


@dataclass
class StatsReport:
    metric: str
    estimate: float
    target: float
    tolerance: float
    passed: bool
    stderr: float = None
    params: dict = field(default_factory=dict)
    note: str = ""

    def as_row(self):
        return {
            "metric": self.metric,
            "params": ";".join("%s=%s" % kv for kv in sorted(self.params.items())),
            "estimate": self.estimate,
            "stderr": self.stderr if self.stderr is not None else "",
            "target": self.target,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
        }


def standardize(values):
    """Divide G_R values by their empirical standard deviation."""
    v = np.asarray(values, dtype=np.float64)
    var = float(v.var(ddof=1))
    if var < 1e-12:
        raise DegenerateSigmaError("degenerate; sigma(1)=0?")
    return v / np.sqrt(var)


def variance_stderr(values):
    """Standard error of the sample variance from the fourth moment:
    sd((g - mean g)^2) / sqrt(N), the sd with ddof=1. Unlike the Gaussian
    var * sqrt(2/(N-1)) it holds for skewed and heavy-tailed samples."""
    v = np.asarray(values, dtype=np.float64)
    return float(((v - v.mean()) ** 2).std(ddof=1) / np.sqrt(len(v)))


def ks_distance(standardized):
    """sup_x |empirical CDF - Phi(x)|, both one-sided gaps at each point."""
    x = np.sort(np.asarray(standardized, dtype=np.float64))
    n = len(x)
    if n < 100:
        raise ValueError("need >= 100 values for a distance estimate")
    from scipy.special import ndtr  # the standard normal CDF
    cdf = ndtr(x)
    i = np.arange(1, n + 1)
    return float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))


def _linfit(x, y):
    """Least-squares line through (x, y): (slope, intercept, slope stderr).

    The arithmetic of scipy.stats.linregress, so the floats are the same.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.max() == x.min():
        raise ValueError("cannot fit a line if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    if len(x) == 2:
        return slope, intercept, 0.0
    # a constant y leaves ssym and ssxym exactly 0, and linregress r = nan
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0) if ssym else np.nan
    return slope, intercept, np.sqrt((1 - r ** 2) * ssym / ssxm / (len(x) - 2))


def scaling_fit(pairs):
    """Least-squares slope of log sigma_hat_R against log R."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need >= 3 R values")
    Rs = np.array([p[0] for p in pairs], dtype=np.float64)
    sig = np.array([p[1] for p in pairs], dtype=np.float64)
    if np.any(sig <= 0):
        raise ValueError("non-positive sigma_hat in scaling fit")
    slope, intercept, stderr = _linfit(np.log(Rs), np.log(sig))
    return float(slope), float(intercept), float(stderr)


def rate_fit(pairs, n_replicas):
    """Slope of log KS distance vs log R, gated by the statistical floor.

    The limit theorem only upper-bounds the distance, so callers should
    treat the result as diagnostic: acceptance is slope <= 0, not equality
    with the theoretical exponent.
    """
    floor = KS_FLOOR_1PCT / np.sqrt(n_replicas)
    usable, excluded = [], []
    for R, dist in pairs:
        if dist <= floor:
            excluded.append((R, dist))
            warnings.warn("KS at R=%g is at the statistical floor %.4g; "
                          "excluded from rate fit" % (R, floor))
        else:
            usable.append((R, dist))
    if len(usable) < 2:
        raise ValueError("fewer than 2 points above the statistical floor")
    Rs = np.array([p[0] for p in usable])
    ds = np.array([p[1] for p in usable])
    slope, _, stderr = _linfit(np.log(Rs), np.log(ds))
    if len(usable) == 2:
        stderr = float("nan")  # two points leave no residual
    return float(slope), float(stderr), excluded


def functional_cov_check(samples_by_time, times, R, constants, d, beta):
    """Compare the empirical covariance of normalized averages at several
    times to the Brownian-type limit k * int_0^{min} eta^2."""
    times = list(times)
    if len(times) < 2:
        raise ValueError("need at least two times")
    X = np.stack([np.asarray(samples_by_time[t]) for t in times], axis=1)
    X = X * R ** (beta / 2.0 - d)
    emp = np.cov(X, rowvar=False)
    if np.linalg.matrix_rank(emp) < len(times):
        raise ValueError("singular empirical covariance")
    C = limit_covariance(times, constants)
    dd = np.sqrt(np.diag(emp))
    emp_corr = emp / np.outer(dd, dd)
    cc = np.sqrt(np.diag(C))
    lim_corr = C / np.outer(cc, cc)
    reports = []
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            est = float(emp_corr[i, j])
            tgt = float(lim_corr[i, j])
            reports.append(StatsReport(
                metric="fclt_correlation",
                params={"t_i": times[i], "t_j": times[j], "R": R},
                estimate=est, target=tgt, tolerance=FCLT_CORR_TOL,
                passed=abs(est - tgt) <= FCLT_CORR_TOL,
                stderr=float((1 - est ** 2) / np.sqrt(X.shape[0]))))
    for i in range(len(times)):
        for j in range(i, len(times)):
            est = float(emp[i, j])
            tgt = float(C[i, j])
            reports.append(StatsReport(
                metric="fclt_covariance",
                params={"t_i": times[i], "t_j": times[j], "R": R},
                estimate=est, target=tgt, tolerance=0.2 * abs(tgt),
                passed=abs(est - tgt) <= 0.2 * abs(tgt) + 1e-15))
    return reports


def increment_moment_fit(samples_by_time, time_pairs, p=2):
    """Log-log slope of E|G(t) - G(s)|^p against t - s (one-sided check)."""
    if p not in (2, 4):
        raise ValueError("p must be 2 or 4")
    gaps, moments = [], []
    for s, t in time_pairs:
        if t == s:
            continue
        inc = np.asarray(samples_by_time[t]) - np.asarray(samples_by_time[s])
        m = float(np.mean(np.abs(inc) ** p))
        if m < 1e-300:
            warnings.warn("increment (%g, %g) below noise floor; excluded"
                          % (s, t))
            continue
        gaps.append(t - s)
        moments.append(m)
    if len(gaps) < 4:
        raise ValueError("need >= 4 usable increment gaps, got %d" % len(gaps))
    gaps = np.array(gaps)
    if gaps.max() / gaps.min() < 10.0 - 1e-9:
        raise ValueError("increment gaps must span a decade")
    slope, _, stderr = _linfit(np.log(gaps), np.log(moments))
    target = INCREMENT_SLOPE_FACTOR * (p / 2.0)
    return StatsReport(
        metric="increment_moment_slope",
        params={"p": p},
        estimate=float(slope), target=target, tolerance=float("inf"),
        passed=slope >= target, stderr=float(stderr),
        note="one-sided: slope >= %.3g" % target)


def increment_r_scaling(samples_lo, samples_hi, time_pair, p=2):
    """Ratio E|dG_hi|^p / E|dG_lo|^p of increment moments at two radii.

    The caller compares it with (R_hi/R_lo)^{p(d-beta/2)}.
    """
    s, t = time_pair
    inc_lo = np.asarray(samples_lo[t]) - np.asarray(samples_lo[s])
    inc_hi = np.asarray(samples_hi[t]) - np.asarray(samples_hi[s])
    m_lo = float(np.mean(np.abs(inc_lo) ** p))
    m_hi = float(np.mean(np.abs(inc_hi) ** p))
    return m_hi / m_lo


def lag_distances(lag_cells, lattice):
    """Length of each lag (in cells), which must lie in [2h, L/4]."""
    dists = []
    for lag in lag_cells:
        dist = float(np.linalg.norm(np.asarray(lag) * lattice.h))
        if not (2 * lattice.h - 1e-12 <= dist <= lattice.L / 4.0 + 1e-12):
            raise ValueError("lag distance %g outside [2h, L/4] = [%g, %g]"
                             % (dist, 2 * lattice.h, lattice.L / 4.0))
        dists.append(dist)
    return dists


def sigma_lag_means(block, sigma, lag_cells):
    """Reducer: for each field of a (B, *grid) block, the mean of sigma(u)
    and, per lag xi, the mean of sigma(u(x)) sigma(u(x + xi)) over
    positions; a (B, 1 + len(lag_cells)) array."""
    su = sigma(block)
    axes = tuple(range(1, su.ndim))
    return np.stack([su.mean(axis=axes)]
                    + [(su * np.roll(su, lag, axis=axes)).mean(axis=axes)
                       for lag in lag_cells], axis=1)


def correlation_decay_check(lag_means, lag_cells, lattice, beta):
    """Envelope check: |Psi_hat(xi) - eta_hat^2| * |xi|^beta bounded in xi.

    lag_means: one sigma_lag_means row per replica. eta_hat and
    Psi_hat(xi) are their means over replicas.
    """
    m = np.asarray(lag_means, dtype=np.float64)
    if m.shape[0] < 100:
        raise ValueError("need >= 100 replicas, got %d" % m.shape[0])
    eta_hat = float(m[:, 0].mean())
    rows = []
    for j, dist in enumerate(lag_distances(lag_cells, lattice), 1):
        psi = float(m[:, j].mean())
        rows.append((dist, psi, abs(psi - eta_hat ** 2) * dist ** beta))
    rows.sort()
    dists = np.array([r[0] for r in rows])
    env = np.array([r[2] for r in rows])
    upper = env[dists >= 0.5 * dists.max()]
    if upper.max() == 0.0:
        ratio = 1.0  # identically zero envelope (degenerate sigma) is bounded
    elif upper.min() <= 0:
        ratio = float("inf")
    else:
        ratio = float(upper.max() / upper.min())
    return StatsReport(
        metric="correlation_decay_envelope",
        params={"beta": beta, "n_lags": len(rows)},
        estimate=ratio, target=1.0, tolerance=DECAY_MAX_MIN_RATIO,
        passed=ratio <= DECAY_MAX_MIN_RATIO,
        note="max/min of |Psi-eta^2|*dist^beta over upper half of lags"), rows


def _gaussian_smoothed_kernel(r, s, beta, d):
    """E |y + sqrt(s) Z|^{-beta} at |y| = r, Z standard Gaussian in R^d,
    for each s in the array s; needs beta < d.

    Writing |v|^{-beta} = int_0^inf u^{beta/2-1} e^{-u|v|^2} du / Gamma(beta/2)
    and E e^{-u|y + sqrt(s) Z|^2} = (1+2us)^{-d/2} e^{-u r^2/(1+2us)}, the
    substitution w = 2us/(1+2us) gives Kummer's integral, and Kummer's
    transformation (DLMF 13.2) the closed form
    (2s)^{-beta/2} Gamma((d-beta)/2) / Gamma(d/2) 1F1(beta/2; d/2; -r^2/(2s)).
    """
    from scipy.special import hyp1f1  # the confluent hypergeometric 1F1
    s = np.asarray(s, dtype=np.float64)
    gamma_ratio = math.exp(math.lgamma((d - beta) / 2.0)
                           - math.lgamma(d / 2.0))
    return ((2.0 * s) ** (-beta / 2.0) * gamma_ratio
            * hyp1f1(beta / 2.0, d / 2.0, -r * r / (2.0 * s)))


def lemma31_check(spec, y):
    """Uniform-in-s bound: sup_s E|y + sqrt(s) Z|^{-beta} <= C |y|^{-beta}.

    By scaling, the ratio E|y + sqrt(s) Z|^{-beta} |y|^beta at s = |y|^2 g
    is the smoothed kernel at |y| = 1 and s = g, whatever y is. So the s grid
    is |y|^2 * logspace(-3, 3, 61), and its ratios are those of the unit
    problem on the g grid. Reports the max ratio over the grid, its
    stability under grid refinement, and the small-s limit (which must be 1).
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if not 0 < np.linalg.norm(y) < np.inf:
        raise ValueError("y must be nonzero and finite, got %r" % (y,))
    g_grid = np.logspace(-3, 3, 61)
    fine = np.sort(np.concatenate(
        [g_grid, np.sqrt(g_grid[:-1] * g_grid[1:])]))
    r = _gaussian_smoothed_kernel(1.0, g_grid, spec.beta, spec.d)
    r_fine = _gaussian_smoothed_kernel(1.0, fine, spec.beta, spec.d)
    max_ratio = float(r.max())
    max_fine = float(r_fine.max())
    rel_change = abs(max_fine - max_ratio) / max_ratio
    small_s_ratio = float(r[0])
    passed = (np.isfinite(max_fine)
              and rel_change < LEMMA31_REFINE_TOL
              and abs(small_s_ratio - 1.0) < 0.01)
    return StatsReport(
        metric="lemma31_max_ratio",
        params={"y": tuple(float(v) for v in y), "beta": spec.beta,
                "d": spec.d},
        estimate=max_ratio, target=max_fine, tolerance=LEMMA31_REFINE_TOL,
        passed=passed,
        note="small-s ratio %.6f; refined max %.6f" % (small_s_ratio, max_fine))
