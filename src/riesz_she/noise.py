"""Spatial Gaussian noise with power-law covariance on a periodic lattice.

The target covariance of one time slice is dt * |x - y|^{-beta} with the
minimum-image (torus) distance. On a regular periodic lattice that
covariance matrix is a circulant, so it is diagonalized exactly by the
DFT and slices can be drawn in O(n^d log n) by frequency-domain coloring.
"""

import numpy as np

# build_embedding refuses a spectrum whose negative modes carry this share
CLAMP_BUDGET = 0.01


class EmbeddingError(Exception):
    """Circulant eigenvalues too negative to clamp safely."""


class RieszSpec:
    """Kernel parameters: dimension d and exponent beta, 0 < beta < min(d, 2)."""

    def __init__(self, d, beta):
        if d < 1 or int(d) != d:
            raise ValueError("d must be a positive integer, got %r" % (d,))
        if not (0.0 < beta < min(d, 2)):
            raise ValueError(
                "beta must lie in (0, min(d,2)) = (0, %g); got beta=%g"
                % (min(d, 2), beta))
        self.d, self.beta = d, beta

    def __repr__(self):
        return "RieszSpec(d=%r, beta=%r)" % (self.d, self.beta)


class Lattice:
    """Periodic lattice on the torus [-L, L)^d with n cells per axis."""

    def __init__(self, d, n, L):
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("n must be a power of two >= 2, got %r" % (n,))
        if L <= 0:
            raise ValueError("half extent L must be positive, got %r" % (L,))
        self.d, self.n, self.L = d, n, L

    def __repr__(self):
        return "Lattice(d=%r, n=%r, L=%r)" % (self.d, self.n, self.L)

    @property
    def h(self):
        return 2.0 * self.L / self.n

    @property
    def shape(self):
        return (self.n,) * self.d

    @property
    def n_cells(self):
        return self.n ** self.d

    @property
    def cell_volume(self):
        return self.h ** self.d

    def axis_centers(self):
        """Cell-center coordinates along one axis."""
        return -self.L + (np.arange(self.n) + 0.5) * self.h

    def center_grids(self):
        """Cell-center coordinate arrays, broadcastable to the full grid."""
        c = self.axis_centers()
        return np.meshgrid(*([c] * self.d), indexing="ij", sparse=True)

    def min_image_distance_grid(self):
        """Euclidean minimum-image distance from cell 0 to every cell."""
        k = np.arange(self.n)
        off = ((k + self.n // 2) % self.n - self.n // 2) * self.h
        axes = np.meshgrid(*([off] * self.d), indexing="ij", sparse=True)
        return np.sqrt(sum(a ** 2 for a in axes))


class SpatialField:
    """The stepping state's field: one grid or a (B, *grid) block of grids
    on the lattice, stored as given."""

    def __init__(self, lattice, values):
        self.lattice, self.values = lattice, values


# Gauss-Legendre nodes per axis of cube_pair_integral; doubling them moves
# d = 2 and 3 by less than 1e-13
_NODES = 24
# largest d for cube_pair_integral: d = 6 peaks at 1.6 GB, d = 7 needs 9+ GB
QUADRATURE_MAX_D = 6


def cube_pair_integral(d, beta):
    """C_d(beta) = int int_{[0,1]^d x [0,1]^d} |x-y|^{-beta} dx dy, beta < d.

    The difference of two uniform points has density prod(1 - |delta_i|).
    Folded onto [0,1]^d (factor 2^d) and split into d pyramids by the largest
    coordinate s (factor d), delta = s * (1, y) with y in [0,1]^{d-1}. The
    s-integral of s^{d-1-beta} (1-s) prod(1 - s y_i) is exact from the
    polynomial's coefficients c_k: sum_k c_k / (d - beta + k). What is left,
    (1 + |y|^2)^{-beta/2} times that sum, is smooth on [0,1]^{d-1} and is
    integrated with a tensor Gauss-Legendre rule of _NODES points per axis,
    _NODES^{d-1} points in all: under 1 ms for d <= 3, about 0.1 s at d = 5.
    """
    nodes = _NODES
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = (x + 1.0) / 2.0, w / 2.0  # the rule on [0, 1]
    idx = np.indices((nodes,) * (d - 1)).reshape(d - 1, nodes ** (d - 1))
    y, weight = x[idx], w[idx].prod(axis=0)  # y: (d-1, points)
    coef = np.zeros((d + 1, y.shape[1]))  # coefficients of s^k, k = 0..d
    coef[0], coef[1] = 1.0, -1.0          # (1 - s)
    for yi in y:                          # times (1 - s y_i)
        coef[1:] -= yi * coef[:-1]
    s_int = (coef / (d - beta + np.arange(d + 1))[:, None]).sum(axis=0)
    radial = (1.0 + (y ** 2).sum(axis=0)) ** (-beta / 2.0)
    return float(2.0 ** d * d * (weight * radial * s_int).sum())


def cell_self_energy(h, spec):
    """Cell-averaged kernel diagonal (1/h^{2d}) int int_{cell^2} |x-y|^{-beta}.

    Finite because beta < d. Scales as h^{-beta} by homogeneity, so only the
    unit-cell constant C_d(beta) is integrated: in closed form in d=1,
    by cube_pair_integral otherwise.
    """
    if h <= 0:
        raise ValueError("cell size h must be positive, got %r" % (h,))
    b = spec.beta
    if spec.d == 1:
        unit = 2.0 / ((1.0 - b) * (2.0 - b))
    else:
        unit = cube_pair_integral(spec.d, b)
    return unit * h ** (-b)


class SpectralCovariance:
    """Eigenvalues of the cell-covariance circulant for unit time step.

    sqrt_eig_half is the nonnegative square root restricted to the rfft
    half-spectrum; sampling scales it by sqrt(dt).
    """

    def __init__(self, lattice, row, eigenvalues, sqrt_eig_half,
                 clamped_mass):
        self.lattice, self.row = lattice, row
        self.eigenvalues, self.sqrt_eig_half = eigenvalues, sqrt_eig_half
        self.clamped_mass = clamped_mass


def build_embedding(lattice, spec):
    """Diagonalize the periodic cell covariance; clamp tiny negative modes."""
    if lattice.d != spec.d:
        raise ValueError("lattice dimension %d != spec dimension %d"
                         % (lattice.d, spec.d))
    dist = lattice.min_image_distance_grid()
    row = np.empty(lattice.shape)
    nz = dist > 0
    row[nz] = dist[nz] ** (-spec.beta)
    row[~nz] = cell_self_energy(lattice.h, spec)
    lam = np.fft.fftn(row).real
    neg = lam < 0
    clamped_mass = float(np.abs(lam[neg]).sum() / np.abs(lam).sum())
    if clamped_mass >= CLAMP_BUDGET:
        raise EmbeddingError(
            "embedding not approximately nonnegative; refine lattice "
            "(clamped mass %.3g >= %.3g)" % (clamped_mass, CLAMP_BUDGET))
    lam = np.where(neg, 0.0, lam)
    half = np.sqrt(lam[..., : lattice.n // 2 + 1])
    return SpectralCovariance(lattice=lattice, row=row, eigenvalues=lam,
                              sqrt_eig_half=half, clamped_mass=clamped_mass)


def spectral_multiply(values, factor, out=None, spec=None):
    """irfftn(rfftn(values) * factor) over the last factor.ndim axes of one
    grid or a (B, *grid) block.

    Written into out through the complex half-spectrum spec, shaped
    (B,) + factor.shape for a block; each is allocated when None. The
    leading axes are inverted in place, so no other array is made.
    """
    axes = tuple(range(values.ndim - factor.ndim, values.ndim))
    spec = np.fft.rfftn(values, axes=axes, out=spec)
    spec *= factor
    for ax in axes[:-1]:
        np.fft.ifft(spec, axis=ax, out=spec)
    return np.fft.irfft(spec, n=values.shape[-1], axis=-1, out=out)


def sample_slice(cov, dt, w, out=None, spec=None):
    """One centered Gaussian slice with Cov(v_i, v_j) = dt * row[i-j].

    Colors the standard normals w through the real symmetric square root of
    the circulant, so the covariance is exact (up to the recorded clamping).
    w is one grid, or a (B, *grid) block colored with one FFT pair over its
    last d axes; the slice is returned, written into out through spec
    (spectral_multiply). out may be w itself.
    """
    factor = cov.sqrt_eig_half * np.sqrt(dt)
    return spectral_multiply(w, factor, out, spec)
