"""Statistical checks of the limit theorems on simulated samples.

Distances to the Gaussian limit are measured in Kolmogorov distance;
total variation is not consistently estimable from a few thousand
samples, and the theory gives the same rate for both. Rate checks are
one-sided because the theoretical rate is an upper bound.
"""

import math

import numpy as np

from .engine import DegenerateSigmaError
from .observables import limit_covariance

# Order-statistic floors for the KS estimator on exact-normal input.
KS_FLOOR_1PCT = 1.63    # / sqrt(N)
FCLT_CORR_TOL = 0.05          # |empirical - limit| correlation per time pair
INCREMENT_SLOPE_FACTOR = 0.8  # increment slope must reach this * p/2
DECAY_MAX_MIN_RATIO = 5.0     # max/min of the decay envelope
NOISE_RATIO_TOL = 0.1         # |empirical/target - 1| per noise lag
LEMMA31_REFINE_TOL = 0.02     # relative change of the max under refinement
_KUMMER_MAX_Z = 50.0          # 1F1(a; b; -z): Kummer series up to here


class StatsReport:
    def __init__(self, metric, estimate, target, tolerance, passed,
                 stderr=None, params=None, note=""):
        self.metric, self.estimate, self.target = metric, estimate, target
        self.tolerance, self.passed, self.stderr = tolerance, passed, stderr
        self.params = {} if params is None else params
        self.note = note

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
        raise DegenerateSigmaError(
            "G_R's sample variance %g is below the 1e-12 floor" % var)
    return v / np.sqrt(var)


def variance_stderr(values):
    """Standard error of the sample variance from the fourth moment:
    sd((g - mean g)^2) / sqrt(N), the sd with ddof=1. Unlike the Gaussian
    var * sqrt(2/(N-1)) it holds for skewed and heavy-tailed samples."""
    v = np.asarray(values, dtype=np.float64)
    return float(((v - v.mean()) ** 2).std(ddof=1) / np.sqrt(len(v)))


# Cephes' ndtr/erf/erfc rational coefficients, highest power first. In the
# Q, S and U denominators the leading coefficient 1 is implicit.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log(2**1024)


def _polevl(x, coef, monic=False):
    """Horner's rule as cephes' polevl, or p1evl with an implicit leading 1."""
    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a):
    """Standard normal CDF, cephes' ndtr with its erf and erfc branches.

    Every operation is one IEEE double operation in cephes' order, and the
    exponential is libm's through math.exp (np.exp may round differently),
    so the floats are those of scipy.special.ndtr.
    """
    a = np.asarray(a, dtype=np.float64)
    x = a * math.sqrt(0.5)  # M_SQRT1_2, as sqrt rounds correctly
    z = np.abs(x)
    y = np.empty_like(x)
    # Cephes takes 0.5 + 0.5 erf(x) below |x| = 1/sqrt(2) and 0.5 erfc(|x|)
    # = 0.5 (1 - erf|x|), reflected for x > 0, from there up to 1. There
    # erf|x| lies in [0.68, 0.85], so by Sterbenz's lemma 1 - erf|x| and
    # 0.5 - 0.5 erf|x| are exact and both forms round to the same float:
    # one erf branch up to |x| = 1 gives cephes' values.
    inner = z < 1.0
    xi = x[inner]
    erf = xi * _polevl(xi * xi, _ERF_T) / _polevl(xi * xi, _ERF_U, monic=True)
    y[inner] = 0.5 + 0.5 * erf
    with np.errstate(over="ignore"):  # z * z is inf past 1e154
        outer = ~inner & (z * z <= _MAXLOG)
    zo = z[outer]
    near = zo < 8.0
    p = np.where(near, _polevl(zo, _ERFC_P), _polevl(zo, _ERFC_R))
    q = np.where(near, _polevl(zo, _ERFC_Q, monic=True),
                 _polevl(zo, _ERFC_S, monic=True))
    e = np.fromiter(map(math.exp, (-zo * zo).tolist()), np.float64, len(zo))
    y[outer] = 0.5 * (e * p / q)
    y[~inner & ~outer] = 0.0  # erfc underflows past MAXLOG
    upper = ~inner & (x > 0)
    y[upper] = 1.0 - y[upper]
    y[np.isnan(a)] = np.nan
    return y


def ks_distance(standardized):
    """sup_x |empirical CDF - Phi(x)|, both one-sided gaps at each point.

    Phi is `_ndtr`, a port of cephes' ndtr, so the distance has the floats
    of scipy.special.ndtr (and scipy.stats.norm.cdf).
    """
    x = np.sort(np.asarray(standardized, dtype=np.float64))
    n = len(x)
    if n < 100:
        raise ValueError("need >= 100 values for a distance estimate")
    cdf = _ndtr(x)
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


def ks_floor(n_replicas):
    """The KS distance of N exact-normal values lies below this 99% of the
    time."""
    return KS_FLOOR_1PCT / np.sqrt(n_replicas)


def rate_fit(pairs, n_replicas):
    """Slope of log KS vs log R over the pairs above the statistical floor.

    The limit theorem only upper-bounds the distance, so callers should
    treat the result as diagnostic: acceptance is slope <= 0, not equality
    with the theoretical exponent.
    """
    floor = ks_floor(n_replicas)
    usable, excluded = [], []
    for R, dist in pairs:
        (excluded if dist <= floor else usable).append((R, dist))
    if len(usable) < 2:
        raise ValueError("fewer than 2 points above the statistical floor")
    Rs = np.array([p[0] for p in usable])
    ds = np.array([p[1] for p in usable])
    slope, _, stderr = _linfit(np.log(Rs), np.log(ds))
    if len(usable) == 2:
        stderr = float("nan")  # two points leave no residual
    return float(slope), float(stderr), excluded


def functional_cov_check(samples_by_time, times, R, limit, d, beta):
    """Compare the empirical covariance of normalized averages at several
    times to the Brownian-type limit k * int_0^{min} eta^2, read from
    limit, the map of each time to k * int_0^t eta^2."""
    times = list(times)
    if len(times) < 2:
        raise ValueError("need at least two times")
    X = np.stack([np.asarray(samples_by_time[t]) for t in times], axis=1)
    X = X * R ** (beta / 2.0 - d)
    emp = np.cov(X, rowvar=False)
    if np.linalg.matrix_rank(emp) < len(times):
        raise ValueError("singular empirical covariance")
    C = limit_covariance(times, limit)
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


def _increment_moment(A, s, t, p):
    """E|G(t) - G(s)|^p over the replicas, A the map of time to G."""
    return float(np.mean(np.abs(np.asarray(A[t]) - np.asarray(A[s])) ** p))


def increment_moment_fit(samples_by_time, time_pairs, p=2):
    """Log-log slope of E|G(t) - G(s)|^p against t - s (one-sided check);
    the note names each pair left out for a moment below 1e-300."""
    if p not in (2, 4):
        raise ValueError("p must be 2 or 4")
    gaps, moments, excluded = [], [], []
    for s, t in time_pairs:
        if t == s:
            continue
        m = _increment_moment(samples_by_time, s, t, p)
        if m < 1e-300:
            excluded.append("(%g, %g) below the 1e-300 floor, excluded"
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
        note="; ".join(["one-sided: slope >= %.3g" % target] + excluded))


def increment_r_scaling(samples_lo, samples_hi, time_pair, p=2):
    """Ratio E|dG_hi|^p / E|dG_lo|^p of increment moments at two radii.

    The caller compares it with (R_hi/R_lo)^{p(d-beta/2)}.
    """
    s, t = time_pair
    return (_increment_moment(samples_hi, s, t, p)
            / _increment_moment(samples_lo, s, t, p))


def lag_distances(lag_cells, lattice):
    """Length of each lag (in cells), which must lie in [2h, L/4]. The
    decay envelope is compared over the lags at least half the largest
    length, so at least two must lie there."""
    dists = []
    for lag in lag_cells:
        dist = float(np.linalg.norm(np.asarray(lag) * lattice.h))
        if not (2 * lattice.h - 1e-12 <= dist <= lattice.L / 4.0 + 1e-12):
            raise ValueError("lag distance %g outside [2h, L/4] = [%g, %g]"
                             % (dist, 2 * lattice.h, lattice.L / 4.0))
        dists.append(dist)
    if sum(x >= 0.5 * max(dists, default=0.0) for x in dists) < 2:
        raise ValueError(
            "lags %s (distances %s): fewer than 2 lie at half the largest "
            "distance or more, where the decay envelope is compared"
            % (", ".join(str(np.ravel(lag).tolist()) for lag in lag_cells),
               ", ".join("%g" % x for x in dists)))
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


def covariance_diagnostic(lag_means, lag_cells, cov, dt):
    """noise_covariance_ratio per lag: the mean product of slices colored
    by cov at that lag, over its target dt * cov.row. lag_means holds one
    sigma_lag_means row per slice (sigma linear), lag_cells[j] in column
    j + 1."""
    if not lag_cells:
        raise ValueError("empty lag list")
    lat = cov.lattice
    if any(len(lag) != lat.d for lag in lag_cells):
        raise ValueError("lags %r have the wrong dimension" % (lag_cells,))
    m = np.asarray(lag_means, dtype=np.float64)
    if m.shape[0] < 100:
        raise ValueError("need at least 100 slices, got %d" % m.shape[0])
    dist = lat.min_image_distance_grid()
    reports = []
    for j, lag in enumerate(lag_cells, 1):
        cell = tuple(k % lat.n for k in lag)
        theo = float(dt * cov.row[cell])
        per_slice = m[:, j].copy()  # contiguous: the mean's summation order
        ratio = float(per_slice.mean()) / theo
        reports.append(StatsReport(
            metric="noise_covariance_ratio",
            params={"lag": tuple(lag), "distance": float(dist[cell])},
            estimate=ratio, target=1.0, tolerance=NOISE_RATIO_TOL,
            passed=1.0 - NOISE_RATIO_TOL <= ratio <= 1.0 + NOISE_RATIO_TOL,
            stderr=float(per_slice.std(ddof=1) / np.sqrt(len(m))) / theo))
    return reports


def _series(z, ratio, n_max=math.inf):
    """Sum of the terms t_0 = 1, t_{k+1} = t_k * ratio(k, z), elementwise
    over the array z, until every term is below 2^-56 of its sum (1/16
    ulp) or n_max terms have been added."""
    term = np.ones_like(z)
    total = np.ones_like(z)
    k = 0
    while k < n_max and np.any(np.abs(term) > 2.0 ** -56 * np.abs(total)):
        term *= ratio(k, z)
        total += term
        k += 1
    return total


def _hyp1f1_neg(a, b, z):
    """1F1(a; b; -z) for each z >= 0 in the array z, with 0 < a < b.

    Up to z = _KUMMER_MAX_Z = 50 it is Kummer's transformation
    e^{-z} 1F1(b - a; b; z), a series of positive terms (DLMF 13.2.39).
    Past it e^z heads for overflow (near z = 709), and the large-z expansion
    Gamma(b)/Gamma(b - a) z^{-a} sum_k (a)_k (a - b + 1)_k / k! z^{-k}
    (DLMF 13.7.2) is used. Its exponentially small second term, of relative
    size e^{-z} z^{2a - b} Gamma(b - a)/Gamma(a), is below 1e-16 there for
    d <= 3 and beta <= d - 0.003 (a = beta/2, b = d/2). The expansion's
    terms shrink while k < z - a, so it stops by k = 50 - b, before it can
    diverge; for d <= 3 they fall below 1/16 ulp well before that.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = z <= _KUMMER_MAX_Z
    zs = z[small]
    out[small] = np.exp(-zs) * _series(
        zs, lambda k, x: (b - a + k) / (b + k) * x / (k + 1))
    zl = z[~small]
    out[~small] = (math.exp(math.lgamma(b) - math.lgamma(b - a)) * zl ** -a
                   * _series(zl, lambda k, x:
                             (a + k) * (a - b + 1 + k) / (k + 1) / x,
                             n_max=_KUMMER_MAX_Z - b))
    return out


def _gaussian_smoothed_kernel(r, s, beta, d):
    """E |y + sqrt(s) Z|^{-beta} at |y| = r, Z standard Gaussian in R^d,
    for each s in the array s; needs beta < d.

    Writing |v|^{-beta} = int_0^inf u^{beta/2-1} e^{-u|v|^2} du / Gamma(beta/2)
    and E e^{-u|y + sqrt(s) Z|^2} = (1+2us)^{-d/2} e^{-u r^2/(1+2us)}, the
    substitution w = 2us/(1+2us) gives Kummer's integral, and Kummer's
    transformation (DLMF 13.2) the closed form
    (2s)^{-beta/2} Gamma((d-beta)/2) / Gamma(d/2) 1F1(beta/2; d/2; -r^2/(2s)).
    The 1F1 is `_hyp1f1_neg`: Kummer's series for r^2/(2s) <= 50 and the
    large-argument expansion past it.
    """
    s = np.asarray(s, dtype=np.float64)
    gamma_ratio = math.exp(math.lgamma((d - beta) / 2.0)
                           - math.lgamma(d / 2.0))
    return ((2.0 * s) ** (-beta / 2.0) * gamma_ratio
            * _hyp1f1_neg(beta / 2.0, d / 2.0, r * r / (2.0 * s)))


def lemma31_check(spec, y):
    """Uniform-in-s bound: sup_s E|y + sqrt(s) Z|^{-beta} <= C |y|^{-beta}.

    By scaling, the ratio E|y + sqrt(s) Z|^{-beta} |y|^beta at s = |y|^2 g
    is the smoothed kernel at |y| = 1 and s = g, whatever y is. So the s grid
    is |y|^2 * logspace(-3, 3, 61), and its ratios are those of the unit
    problem on the g grid: the even entries of the kernel on the grid
    refined by the geometric midpoints. Reports the max ratio over the grid,
    its stability under refinement, and the small-s limit (which must be 1).
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if not (np.isfinite(y).all() and y.any()):
        raise ValueError("y must be nonzero and finite, got %r" % (y,))
    g_grid = np.logspace(-3, 3, 61)
    fine = np.sort(np.concatenate(
        [g_grid, np.sqrt(g_grid[:-1] * g_grid[1:])]))
    r_fine = _gaussian_smoothed_kernel(1.0, fine, spec.beta, spec.d)
    r = r_fine[::2]
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
