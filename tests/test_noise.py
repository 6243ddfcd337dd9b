import numpy as np
import pytest

from riesz_she import (Lattice, RieszSpec, build_embedding, cell_self_energy,
                       covariance_diagnostic, sample_slice)
from riesz_she import noise
from riesz_she.noise import EmbeddingError
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


def test_covariance_diagnostic_band(slices_1d):
    lat, spec, cov, dt, slices = slices_1d
    # distances from h up to L/2
    lags = [(0,), (1,), (2,), (4,), (8,), (16,), (32,)]
    rows = covariance_diagnostic(slices, lat, lags, spec, dt)
    assert not any(r.flagged for r in rows)
    for row in rows:
        assert 0.9 <= row.ratio <= 1.1


def test_covariance_diagnostic_determinism(slices_1d):
    lat, spec, cov, dt, _ = slices_1d
    a = [sample_slice(cov, dt, normals(lat, 5, i)) for i in range(200)]
    b = [sample_slice(cov, dt, normals(lat, 5, i)) for i in range(200)]
    ra = covariance_diagnostic(a, lat, [(0,), (3,)], spec, dt)
    rb = covariance_diagnostic(b, lat, [(0,), (3,)], spec, dt)
    for x, y in zip(ra, rb):
        assert x.empirical == y.empirical


def test_covariance_diagnostic_errors(slices_1d):
    lat, spec, cov, dt, slices = slices_1d
    with pytest.raises(ValueError, match="empty lag"):
        covariance_diagnostic(slices, lat, [], spec, dt)
    with pytest.raises(ValueError, match="100 slices"):
        covariance_diagnostic(slices[:50], lat, [(0,)], spec, dt)


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


def test_sample_slice_rejects_bad_dt(slices_1d):
    lat, spec, cov, dt, _ = slices_1d
    with pytest.raises(ValueError):
        sample_slice(cov, 0.0, normals(lat, 0, 0))
