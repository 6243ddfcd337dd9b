
import numpy as np
import pytest

from riesz_she import (InitialCondition, Lattice, NonlinearitySpec, Region,
                       RieszSpec, build_embedding, cell_self_energy,
                       covariance_diagnostic, parse_config, run_experiment,
                       sample_slice)
from riesz_she import noise, runner
from riesz_she.noise import EmbeddingError
from riesz_she.stats import sigma_lag_means
from riesz_she.streams import stream_for


def normals(lat, seed, replica_id):
    """A replica's first step of standard normals, as noise-validate draws."""
    return stream_for(seed, replica_id).standard_normal(lat.shape)


def test_spec_rejects_bad_beta():
    with pytest.raises(ValueError):
        RieszSpec(d=1, beta=1.0)
    with pytest.raises(ValueError):
        RieszSpec(d=1, beta=1.5)
    with pytest.raises(ValueError):
        RieszSpec(d=3, beta=2.0)
    with pytest.raises(ValueError):
        RieszSpec(d=2, beta=0.0)
    RieszSpec(d=3, beta=1.9)  # < min(d,2) is fine


def test_lattice_rejects_bad_n_and_L():
    with pytest.raises(ValueError, match="n must be a power of two >= 2, got 3"):
        Lattice(d=1, n=3, L=1.0)
    with pytest.raises(ValueError, match="half extent L must be positive, got 0"):
        Lattice(d=1, n=4, L=0)


def test_spec_reprs_are_one_line():
    assert repr(RieszSpec(1, 0.5)) == "RieszSpec(d=1, beta=0.5)"
    assert repr(Lattice(2, 8, 4.0)) == "Lattice(d=2, n=8, L=4.0)"
    assert repr(Region("box", 2.0)) == "Region(kind='box', radius=2.0)"
    assert repr(NonlinearitySpec("affine", 2.0, 0.5)) == \
        "NonlinearitySpec(kind='affine', a=2.0, b=0.5, c=0.0)"
    assert repr(InitialCondition("cosine", offset=1.0, amplitude=0.5,
                                 cycles=2)) == \
        "InitialCondition(kind='cosine', value=1.0, offset=1.0, " \
        "amplitude=0.5, cycles=2)"


def test_cell_self_energy_closed_form():
    spec = RieszSpec(1, 0.5)
    assert cell_self_energy(1.0, spec) == pytest.approx(2 / 0.75, rel=1e-12)
    # h^{-beta} scaling
    assert cell_self_energy(0.25, spec) == pytest.approx(
        (2 / 0.75) * 0.25 ** -0.5, rel=1e-12)


def test_cell_self_energy_d2_frozen_oracle():
    # 2.9732096: deterministic polar quadrature of the unit-square pair
    # integral int (1-|d1|)(1-|d2|)/|d|, frozen here
    assert cell_self_energy(1.0, RieszSpec(2, 1.0)) == pytest.approx(
        2.9732096, abs=1e-6)
    assert cell_self_energy(0.5, RieszSpec(2, 1.0)) == pytest.approx(
        2.9732096 * 2.0, abs=2e-6)


def test_cell_self_energy_bad_h():
    with pytest.raises(ValueError):
        cell_self_energy(0.0, RieszSpec(1, 0.5))


def test_embedding_row_d1_n4():
    lat = Lattice(d=1, n=4, L=2.0)  # h = 1
    spec = RieszSpec(1, 0.5)
    cov = build_embedding(lat, spec)
    expect = [2 / 0.75, 1.0, 2 ** -0.5, 1.0]
    assert np.allclose(cov.row, expect, rtol=1e-12)


def test_embedding_eigen_symmetry_and_trace():
    lat = Lattice(d=1, n=64, L=8.0)
    spec = RieszSpec(1, 0.5)
    cov = build_embedding(lat, spec)
    lam = cov.eigenvalues
    # symmetric under frequency negation
    assert np.allclose(lam, lam[(-np.arange(64)) % 64], atol=1e-10)
    # trace identity
    assert lam.sum() / 64 == pytest.approx(cov.row[0], rel=1e-10)
    assert 0.0 <= cov.clamped_mass < 0.01


def test_embedding_clamp_budget_error_path(monkeypatch):
    # no budget at all: any clamped mass, even 0, is refused
    lat = Lattice(d=1, n=64, L=8.0)
    monkeypatch.setattr(noise, "CLAMP_BUDGET", 0.0)
    with pytest.raises(EmbeddingError, match="refine lattice"):
        build_embedding(lat, RieszSpec(1, 0.5))


def test_embedding_dimension_mismatch():
    with pytest.raises(ValueError):
        build_embedding(Lattice(d=2, n=16, L=2.0), RieszSpec(1, 0.5))


@pytest.fixture(scope="module")
def slices_1d():
    # d=1 reference-style config at h = 0.25
    lat = Lattice(d=1, n=64, L=8.0)
    spec = RieszSpec(1, 0.5)
    cov = build_embedding(lat, spec)
    dt = 0.01
    slices = [sample_slice(cov, dt, normals(lat, 11, i))
              for i in range(10_000)]
    return lat, spec, cov, dt, slices


def test_slice_mean_and_variance(slices_1d):
    lat, spec, cov, dt, slices = slices_1d
    vals = np.stack(slices)
    cell = vals[:, 17]
    target_var = dt * cell_self_energy(lat.h, spec)  # 0.0533...
    assert target_var == pytest.approx(0.05333, rel=1e-3)
    se = cell.std(ddof=1) / np.sqrt(len(cell))
    assert abs(cell.mean()) < 4 * se
    assert abs(cell.var(ddof=1) - target_var) < 0.05 * target_var


def test_slice_covariance_at_unit_distance(slices_1d):
    lat, spec, cov, dt, slices = slices_1d
    vals = np.stack(slices)
    prod = (vals * np.roll(vals, 4, axis=1)).mean(axis=1)  # lag 4 = distance 1
    assert prod.mean() == pytest.approx(dt * 1.0, rel=0.10)


def lag_means(slices, lags):
    """The noise-validate reduction of a list of slices."""
    return sigma_lag_means(np.stack(slices), NonlinearitySpec("linear"), lags)


def test_covariance_diagnostic_band(slices_1d):
    lat, spec, cov, dt, slices = slices_1d
    # distances from h up to L/2
    lags = [(0,), (1,), (2,), (4,), (8,), (16,), (32,)]
    reports = covariance_diagnostic(lag_means(slices, lags), lags, cov, dt)
    assert all(r.passed for r in reports)
    for r in reports:
        assert 0.9 <= r.estimate <= 1.1


def test_covariance_diagnostic_determinism(slices_1d):
    lat, spec, cov, dt, _ = slices_1d
    lags = [(0,), (3,)]
    a = [sample_slice(cov, dt, normals(lat, 5, i)) for i in range(200)]
    b = [sample_slice(cov, dt, normals(lat, 5, i)) for i in range(200)]
    ra = covariance_diagnostic(lag_means(a, lags), lags, cov, dt)
    rb = covariance_diagnostic(lag_means(b, lags), lags, cov, dt)
    for x, y in zip(ra, rb):
        assert x.estimate == y.estimate


def test_covariance_diagnostic_lags_wrap_mod_n(slices_1d):
    # n = 64: a lag and the lag plus or minus n are one lag on the torus
    lat, spec, cov, dt, slices = slices_1d
    lags = [(3,), (67,), (-61,), (40,), (-24,)]
    reports = covariance_diagnostic(lag_means(slices[:500], lags), lags,
                                     cov, dt)
    assert [r.params["lag"] for r in reports] == lags
    assert [r.params["distance"] for r in reports] == [0.75] * 3 + [6.0] * 2
    for a, b in [(0, 1), (0, 2), (3, 4)]:
        ra, rb = reports[a], reports[b]
        assert (ra.estimate, ra.stderr) == (rb.estimate, rb.stderr)


NOISE_D1 = """
kind = noise-validate
d = 1
beta = 0.5
dt = 0.01
n_replicas = 150
seed = 23

[lattice]
n = 64
L = 8.0
"""
NOISE_D2 = """
kind = noise-validate
d = 2
beta = 1.0
dt = 0.01
n_replicas = 100
seed = 4
lags = 0, 1, 5, 40

[lattice]
n = 32
L = 4.0
"""


@pytest.mark.parametrize("B", [1, 7, None])
@pytest.mark.parametrize("text", [NOISE_D1, NOISE_D2], ids=["d1", "d2"])
def test_noise_validate_equals_a_per_slice_loop(text, B, monkeypatch):
    # the reference draws, colors and lag-reduces one slice at a time; the
    # run does it a block at a time, whatever the block size
    cfg = parse_config(text)
    if B is not None:
        monkeypatch.setattr(runner, "block_size", lambda lattice: B)
    reports = run_experiment(cfg).reports
    lat, lags = cfg.lattice, runner.lag_cells(cfg)
    cov = build_embedding(lat, cfg.spec)
    axes = tuple(range(lat.d))
    products = []
    for i in range(cfg.n_replicas):
        s = sample_slice(cov, cfg.dt, normals(lat, cfg.seed, i))
        products.append([(s * np.roll(s, lag, axis=axes)).mean()
                         for lag in lags])
    assert len(reports) == len(lags)
    for rep, lag, col in zip(reports, lags, np.array(products).T.copy()):
        off = [((k + lat.n // 2) % lat.n - lat.n // 2) * lat.h for k in lag]
        theo = cfg.dt * cov.row[tuple(k % lat.n for k in lag)]
        ratio = float(col.mean()) / theo
        assert rep.metric == "noise_covariance_ratio"
        assert rep.params == {"lag": lag,
                              "distance": float(np.linalg.norm(off))}
        assert rep.estimate == ratio and type(rep.estimate) is float
        assert rep.stderr == float(col.std(ddof=1)
                                   / np.sqrt(cfg.n_replicas)) / theo
        assert rep.passed == (0.9 <= ratio <= 1.1)
        assert (rep.target, rep.tolerance) == (1.0, 0.1)


def test_dt_scaling_is_exact_per_stream(slices_1d):
    lat, spec, cov, dt, _ = slices_1d
    a = np.stack([sample_slice(cov, dt, normals(lat, 3, i))
                  for i in range(500)])
    b = np.stack([sample_slice(cov, 2 * dt, normals(lat, 3, i))
                  for i in range(500)])
    # same stream: doubling dt scales every slice by sqrt(2), so every
    # empirical second moment doubles
    assert np.allclose((b ** 2).mean(axis=0), 2 * (a ** 2).mean(axis=0),
                       rtol=1e-12)


def test_isotropy_d2():
    lat = Lattice(d=2, n=32, L=4.0)
    spec = RieszSpec(2, 1.0)
    cov = build_embedding(lat, spec)
    dt = 0.01
    vals = np.stack([sample_slice(cov, dt, normals(lat, 21, i))
                     for i in range(3000)])
    def lag_cov(la, lb):
        prod = (vals * np.roll(vals, (la, lb), axis=(1, 2))).mean(axis=(1, 2))
        return prod.mean(), prod.std(ddof=1) / np.sqrt(len(prod))
    # lags (3,4) and (5,0) have identical Euclidean length 5h
    c1, s1 = lag_cov(3, 4)
    c2, s2 = lag_cov(5, 0)
    assert abs(c1 - c2) < 4 * np.hypot(s1, s2)


@pytest.mark.parametrize("d, n, beta", [(1, 16, 0.5), (2, 8, 0.5),
                                         (3, 4, 1.0)])
def test_sampler_is_the_symmetric_root_of_the_circulant(d, n, beta):
    # the sampler is linear in w: the unit vectors give its matrix A, whose
    # square must be the circulant dt * ifftn(eigenvalues) exactly, at lag
    # i - j mod n (d = 3, beta = 0.5 fails the clamp at n = 4)
    lat = Lattice(d=d, n=n, L=4.0)
    cov = build_embedding(lat, RieszSpec(d, beta))
    dt, N = 0.01, lat.n_cells
    A = sample_slice(cov, dt, np.eye(N).reshape((N,) + lat.shape))
    A = A.reshape(N, N)
    idx = np.indices(lat.shape).reshape(d, N)
    lag = (idx[:, :, None] - idx[:, None, :]) % n
    target = dt * np.fft.ifftn(cov.eigenvalues).real[tuple(lag)]
    assert np.abs(A - A.T).max() <= 1e-15
    assert np.abs(A @ A.T - target).max() <= 1e-15
