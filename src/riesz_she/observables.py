"""Spatial averages and the constants entering the limit theorems.

G_R(t) is the integral of u(t,x) - E u(t,x) over a ball or box of size R.
Its limiting variance is k * int_0^t eta(s)^2 ds * R^{2d-beta}, where k is
the kernel double integral over the unit region and eta(s) is the
(spatially constant) mean of sigma(u(s, .)).
"""

import math

import numpy as np

from .noise import cube_pair_integral


class Region:
    """Ball {|x| <= R} or box {max|x_i| <= R}, centered at the origin."""

    def __init__(self, kind, radius):
        if kind not in ("ball", "box"):
            raise ValueError("region kind must be ball or box, got %r"
                             % (kind,))
        if not radius > 0:  # also rejects nan
            raise ValueError("region size must be positive, got %r"
                             % (radius,))
        self.kind, self.radius = kind, radius

    def __repr__(self):
        return "Region(kind=%r, radius=%r)" % (self.kind, self.radius)

    def mask(self, lattice):
        """Boolean grid of cell centers inside the region."""
        grids = lattice.center_grids()
        if self.kind == "ball":
            return sum(g ** 2 for g in grids) <= self.radius ** 2
        inside = True
        for g in grids:
            inside = inside & (np.abs(g) <= self.radius)
        return np.broadcast_to(inside, lattice.shape)

    def cells(self, lattice):
        """Flat C-order indices of the cells inside the region."""
        idx = np.flatnonzero(self.mask(lattice))
        if idx.size == 0:
            # the nearest centers lie h/2 from 0 along each axis
            name, edge = ("(h/2)*sqrt(d)", np.sqrt(lattice.d)) \
                if self.kind == "ball" else ("h/2", 1.0)
            raise ValueError("region contains no cell centers (%s R=%g < "
                             "%s=%g)" % (self.kind, self.radius, name,
                                         edge * lattice.h / 2))
        return idx


def check_margin(lattice, regions, T):
    """Torus must leave a collar 6*sqrt(T), how far the wrap-around
    reaches by time T, outside every region."""
    width = 6.0 * np.sqrt(T)
    for reg in regions:
        if lattice.L < reg.radius - 1e-12 + width:
            raise ValueError("L=%g < R_max+6*sqrt(T)=%g"
                             % (lattice.L, reg.radius + width))


def region_average(flat, idx, mean_in_region, cell_volume):
    """h^d * sum over in-region cells of (field - mean field), a (B,) array
    for a (B, n_cells) block of flattened fields. idx holds the region's
    flat cell indices and mean_in_region the mean field at them. Each row is
    summed alone, so no value depends on B."""
    # np.take gathers in C order, so the axis-1 sum is numpy's pairwise sum
    # of each contiguous row, as row.sum() is; flat[:, idx] would be
    # column-major, and its rows would be summed in a different order
    diff = np.take(flat, idx, axis=1)
    diff -= mean_in_region
    return cell_volume * diff.sum(axis=1)


def region_averages(block, cells, means, cell_volume):
    """Reducer: G_R of each field of a (B, *grid) block, a (B, n_regions)
    array; cells and means hold region_average's idx and mean_in_region
    per region. It is looked up on the module, where perfbench traces it."""
    flat = block.reshape(len(block), -1)
    return np.column_stack([region_average(flat, idx, mean, cell_volume)
                            for idx, mean in zip(cells, means)])


def ball_pair_integral(d, beta):
    """int int_{B_1 x B_1} |x-y|^{-beta} over the unit d-ball, beta < d.

    vol^2 int_0^2 r^{-beta} f_d(r) dr with the pair-distance density
    f_d(r) = d r^{d-1} I_{1-r^2/4}((d+1)/2, 1/2), integrated by parts:
    vol^2 d 2^m B((m+1)/2, (d+1)/2) / (m B((d+1)/2, 1/2)), m = d - beta.
    """
    def log_beta(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    m = d - beta
    log_vol = d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)
    return math.exp(2.0 * log_vol + math.log(d / m) + m * math.log(2.0)
                    + log_beta((m + 1.0) / 2.0, (d + 1.0) / 2.0)
                    - log_beta((d + 1.0) / 2.0, 0.5))


def k_beta(region_kind, spec):
    """Kernel double integral over the unit region of region_kind ("ball"
    or "box"); over the radius-R region it is this times R^{2d-beta}.

    In d=1 ball and box coincide with [-1,1]: 2^{3-beta}/((1-beta)(2-beta)).
    Otherwise the ball's closed form (ball_pair_integral), or for the box
    [-1,1]^d, 2^{2d-beta} times the unit-cube integral (cube_pair_integral).
    """
    d, b = spec.d, spec.beta
    if b >= d:
        raise ValueError("k diverges for beta >= d")
    if d == 1:
        return 2.0 ** (3.0 - b) / ((1.0 - b) * (2.0 - b))
    if region_kind == "ball":
        return ball_pair_integral(d, b)
    return 2.0 ** (2 * d - b) * cube_pair_integral(d, b)


def eta_sq_integrals(t_grid, eta):
    """{t: trapezoidal integral of eta^2 over [0, t]} for each t of t_grid,
    an increasing grid from 0 at which eta holds eta(t)."""
    t = np.asarray(t_grid, dtype=np.float64)
    y = np.asarray(eta, dtype=np.float64) ** 2
    # each prefix integrated alone: np.cumsum's running sums would round
    # differently
    return {s: float(np.trapezoid(y[:i + 1], t[:i + 1]))
            for i, s in enumerate(t.tolist())}


def estimate_eta(means_by_time):
    """(times, eta): eta(s), the mean over replicas of the torus mean of
    sigma(u(s, .)), at each time of means_by_time, which maps a time to
    one sigma_lag_means row per replica (the torus mean in column 0)."""
    times = sorted(means_by_time)
    per_rep = np.array([means_by_time[t][:, 0] for t in times],
                       dtype=np.float64)
    n = per_rep.shape[1]
    if n < 100:
        raise ValueError("need >= 100 replicas for eta, got %d" % n)
    return np.array(times), per_rep.mean(axis=1)


def limit_covariance(times, limit):
    """C_ij = limit[min(t_i, t_j)], where limit maps each time to
    k * int_0^t eta^2; PSD by min-kernel structure."""
    return np.array([[limit[min(s, t)] for t in times] for s in times])


def constants_rows(spec, region_kind="ball"):
    """CSV-ready rows (name, d, beta, region_kind, value, stderr, method):
    the one k_beta row, exact up to rounding, so its stderr is 0."""
    method = ("quadrature" if region_kind == "box" and spec.d >= 2
              else "closed-form")
    return [("k_beta", spec.d, spec.beta, region_kind,
             k_beta(region_kind, spec), 0.0, method)]
