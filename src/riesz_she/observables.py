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
            raise ValueError("region contains no cell centers (R=%g < h/2=%g?)"
                             % (self.radius, lattice.h / 2.0))
        return idx


def check_margin(lattice, regions, T):
    """Torus must leave a 6*sqrt(T) collar outside every region."""
    collar = 6.0 * np.sqrt(T)
    for reg in regions:
        if lattice.L < reg.radius - 1e-12 + collar:
            raise ValueError("L=%g < R_max+6*sqrt(T)=%g"
                             % (lattice.L, reg.radius + collar))


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


def k_beta(region_unit, spec):
    """Kernel double integral over the region, scaled as R^{2d-beta}.

    In d=1 ball and box coincide with [-1,1]: 2^{3-beta}/((1-beta)(2-beta)).
    Otherwise the ball's closed form (ball_pair_integral), or for the box
    [-1,1]^d, 2^{2d-beta} times the unit-cube integral (cube_pair_integral).
    """
    d, b = spec.d, spec.beta
    if b >= d:
        raise ValueError("k diverges for beta >= d")
    if d == 1:
        base = 2.0 ** (3.0 - b) / ((1.0 - b) * (2.0 - b))
    elif region_unit.kind == "ball":
        base = ball_pair_integral(d, b)
    else:
        base = 2.0 ** (2 * d - b) * cube_pair_integral(d, b)
    return base * region_unit.radius ** (2 * d - b)


class LimitConstants:
    """k constant plus the tabulated eta(s) = E sigma(u(s, .)) curve."""

    def __init__(self, k_beta, t_grid, eta, eta_se=None):
        t_grid = np.asarray(t_grid, dtype=np.float64)
        eta = np.asarray(eta, dtype=np.float64)
        if k_beta <= 0:
            raise ValueError("k constant must be positive")
        if t_grid.shape != eta.shape:
            raise ValueError("t grid and eta curve must align")
        if not np.all(np.isfinite(eta)):
            raise ValueError("eta curve must be finite")
        if np.any(np.diff(t_grid) <= 0):
            raise ValueError("t grid must be strictly increasing")
        self.k_beta, self.t_grid, self.eta = k_beta, t_grid, eta
        self.eta_se = np.zeros_like(eta) if eta_se is None else eta_se

    def eta_sq_integral(self, t):
        """Trapezoidal integral of eta^2 over [0, t]; t must be on the grid."""
        tg = self.t_grid
        if t < tg[0] - 1e-12 or t > tg[-1] + 1e-12:
            raise ValueError("t=%r outside tabulated range [%g, %g]"
                             % (t, tg[0], tg[-1]))
        if tg[0] > 1e-12:
            raise ValueError("eta table must start at t=0")
        idx = int(np.argmin(np.abs(tg - t)))
        if abs(tg[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("t=%r is not a tabulated time" % (t,))
        # numpy's own trapezoid arithmetic, written out: np.trapz is gone
        # in numpy 2.4 and np.trapezoid is missing before numpy 2.0
        x, y = tg[: idx + 1], self.eta[: idx + 1] ** 2
        return float(np.add.reduce(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def window_sigma_mean(block, sigma, window):
    """Reducer: each field's mean of sigma(u) over window (flat cell
    indices), for a (B, *grid) block; the C-order gather keeps each row's
    mean the pairwise mean of that row alone (see region_average)."""
    flat = block.reshape(len(block), -1)
    return sigma(np.take(flat, window, axis=1)).mean(axis=1)


def estimate_eta(means_by_time):
    """eta(s): mean over replicas of window_sigma_mean, with its stderr.

    means_by_time: {time: one window mean per replica}.
    """
    times = sorted(means_by_time)
    per_rep = np.array([means_by_time[t] for t in times], dtype=np.float64)
    n = per_rep.shape[1]
    if n < 100:
        raise ValueError("need >= 100 replicas for eta, got %d" % n)
    return (np.array(times), per_rep.mean(axis=1),
            per_rep.std(axis=1, ddof=1) / np.sqrt(n))


def limit_covariance(times, constants):
    """C_ij = k * int_0^{min(t_i, t_j)} eta^2; PSD by min-kernel structure."""
    return np.array([[constants.k_beta * constants.eta_sq_integral(min(s, t))
                      for t in times] for s in times])


def constants_rows(spec, region_kind="ball"):
    """CSV-ready rows (name, d, beta, region_kind, value, stderr, method):
    the one k_beta row, exact up to rounding, so its stderr is 0."""
    method = ("quadrature" if region_kind == "box" and spec.d >= 2
              else "closed-form")
    val = k_beta(Region(kind=region_kind, radius=1.0), spec)
    return [("k_beta", spec.d, spec.beta, region_kind, val, 0.0, method)]
