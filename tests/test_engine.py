import functools

import numpy as np
import pytest

from riesz_she import (InitialCondition, Lattice, NonlinearitySpec, RieszSpec,
                       SpatialField, build_embedding, heat_semigroup,
                       mean_field, sample_slice, simulate)
from riesz_she.engine import (FieldState, InstabilityError, heat_multiplier,
                              snap_to_grid, step)
from riesz_she.observables import region_averages, window_sigma_mean
from riesz_she.stats import sigma_lag_means
from riesz_she.streams import stream_for


def with_g_r(init, lat, regions, times, *extra):
    """simulate's reducers as the runner builds them: at each record time
    the G_R of the regions first, then the extra reducers."""
    cells = [reg.cells(lat) for reg in regions]
    out = {}
    for t in times:
        mean = mean_field(init, t, lat).reshape(-1)
        out[t] = (functools.partial(region_averages, cells=cells,
                                    means=[mean[idx] for idx in cells],
                                    cell_volume=lat.cell_volume),) + extra
    return out


@pytest.fixture(scope="module")
def small_setup():
    lat = Lattice(d=1, n=64, L=8.0)
    spec = RieszSpec(1, 0.5)
    cov = build_embedding(lat, spec)
    return lat, spec, cov


def test_sigma_kinds():
    assert NonlinearitySpec("linear")(np.float64(1.0)) == 1.0
    assert NonlinearitySpec("affine", a=1, b=-1)(np.float64(1.0)) == 0.0
    assert NonlinearitySpec("sine-affine", a=1, b=0, c=2)(np.float64(0.0)) \
        == 2.0
    assert NonlinearitySpec("clipped-linear")(np.float64(-3.0)) == 0.0
    assert NonlinearitySpec("clipped-linear")(np.float64(3.0)) == 3.0


def test_sigma_lipschitz_audit():
    # sine-affine is Lipschitz with constant |a| + |b|, attained at x = 0
    sigma = NonlinearitySpec("sine-affine", a=2.0, b=1.0, c=0.0)
    x = np.linspace(-10.0, 10.0, 10_000)
    slopes = np.abs(np.diff(sigma(x)) / np.diff(x))
    assert slopes.max() <= 3.0
    assert slopes.max() == pytest.approx(3.0, rel=1e-4)


@pytest.mark.parametrize("kind", ["linear", "affine", "sine-affine",
                                  "clipped-linear"])
def test_sigma_matches_its_formula(kind):
    a, b, c = 0.5, 0.8, 0.1
    formula = {"linear": lambda v: v, "affine": lambda v: a * v + b,
               "sine-affine": lambda v: a * np.sin(v) + b * v + c,
               "clipped-linear": lambda v: np.maximum(v, 0.0)}[kind]
    sigma = NonlinearitySpec(kind, a=a, b=b, c=c)
    u = 3.0 * np.random.default_rng(4).standard_normal((5, 16, 8))
    assert np.array_equal(sigma(u), formula(u))


def test_sigma_degenerate_flag():
    assert NonlinearitySpec("affine", a=1, b=-1)(np.float64(1.0)) == 0.0
    assert NonlinearitySpec("linear")(np.float64(1.0)) != 0.0


def test_sigma_unknown_kind():
    with pytest.raises(ValueError, match="unknown sigma kind"):
        NonlinearitySpec("cubic")


def test_initial_condition_unknown_kind():
    with pytest.raises(ValueError,
                       match="unknown initial-condition kind 'ramp'"):
        InitialCondition("ramp")


@pytest.mark.parametrize("kwargs", [
    {"value": np.nan}, {"value": np.inf},
    {"offset": np.nan, "amplitude": 1.0}, {"offset": -np.inf},
    {"amplitude": np.nan}, {"amplitude": np.inf}])
def test_initial_condition_rejects_non_finite_values(kwargs):
    # values enter u0 here; the fields built from it are not re-checked
    for kind in ("constant", "cosine"):
        with pytest.raises(ValueError, match="must be finite"):
            InitialCondition(kind, **kwargs)


def test_heat_semigroup_preserves_constants(small_setup):
    lat, _, _ = small_setup
    out = heat_semigroup(np.full(lat.shape, 3.7), lat, 0.3)
    assert np.allclose(out, 3.7, atol=1e-12)


def test_heat_semigroup_identity_at_zero(small_setup):
    lat, _, _ = small_setup
    rng = np.random.default_rng(0)
    f = rng.standard_normal(lat.shape)
    out = heat_semigroup(f, lat, 0.0)
    assert np.array_equal(out, f)
    assert out is not f


def test_heat_semigroup_gaussian_convolution_identity():
    # p_s * p_tau = p_{s+tau}; s, tau >= 10 h^2
    lat = Lattice(d=1, n=256, L=8.0)  # h = 0.0625, 10 h^2 = 0.039
    x = lat.axis_centers()
    def p(t):
        return np.exp(-x ** 2 / (2 * t)) / np.sqrt(2 * np.pi * t)
    s, tau = 0.05, 0.08
    out = heat_semigroup(p(s), lat, tau)
    assert np.max(np.abs(out - p(s + tau))) <= 1e-6


def test_heat_semigroup_rejects_negative_tau(small_setup):
    lat, _, _ = small_setup
    with pytest.raises(ValueError):
        heat_semigroup(np.ones(lat.shape), lat, -0.1)


def test_step_zero_sigma_keeps_constant(small_setup):
    lat, _, cov = small_setup
    sigma = NonlinearitySpec("affine", a=0.0, b=0.0)
    state = FieldState(SpatialField(lat, np.ones(lat.shape)), 0, 0.01)
    g, mult = stream_for(1, 0), heat_multiplier(lat, 0.01)
    for _ in range(10):
        sl = sample_slice(cov, 0.01, g.standard_normal(lat.shape))
        step(state, sl, sigma, mult)
    assert np.allclose(state.field.values, 1.0, atol=1e-12)
    assert state.step_index == 10
    assert state.time == pytest.approx(0.1)


def test_step_degenerate_sigma_is_exact(small_setup):
    lat, _, cov = small_setup
    sigma = NonlinearitySpec("affine", a=1.0, b=-1.0)  # sigma(1) = 0
    state = FieldState(SpatialField(lat, np.ones(lat.shape)), 0, 0.01)
    g, mult = stream_for(2, 0), heat_multiplier(lat, 0.01)
    for _ in range(20):
        sl = sample_slice(cov, 0.01, g.standard_normal(lat.shape))
        step(state, sl, sigma, mult)
    assert np.array_equal(state.field.values, np.ones(lat.shape))


def test_step_mean_stays_one_linear(small_setup):
    lat, _, cov = small_setup
    sigma = NonlinearitySpec("linear")
    dt = 0.005
    mult = heat_multiplier(lat, dt)
    means = []
    for rid in range(500):
        state = FieldState(SpatialField(lat, np.ones(lat.shape)), 0, dt)
        g = stream_for(3, rid)
        for _ in range(10):
            sl = sample_slice(cov, dt, g.standard_normal(lat.shape))
            step(state, sl, sigma, mult)
        means.append(state.field.values.mean())
    means = np.array(means)
    se = means.std(ddof=1) / np.sqrt(len(means))
    assert abs(means.mean() - 1.0) < 3 * se + 1e-12


def test_step_blowup_guard(small_setup):
    lat, _, cov = small_setup
    sigma = NonlinearitySpec("linear")
    state = FieldState(SpatialField(lat, np.ones(lat.shape)), 0, 0.01)
    with pytest.raises(InstabilityError, match="reduce dt"):
        step(state, np.full(lat.shape, np.inf), sigma,
             heat_multiplier(lat, 0.01))


def test_mean_field_examples(small_setup):
    lat, _, _ = small_setup
    const = InitialCondition("constant", value=1.0)
    assert np.allclose(mean_field(const, 0.7, lat), 1.0, atol=1e-12)
    assert np.array_equal(mean_field(const, 0.0, lat), const.field_on(lat))
    # the cosine start varies along the first axis only and stays within
    # its bounds under the heat flow
    init = InitialCondition("cosine", offset=1.25, amplitude=0.75)
    assert np.array_equal(init.field_on(lat),
                          1.25 + 0.75 * np.cos(np.pi * lat.axis_centers()
                                               / lat.L))
    lat2 = Lattice(d=2, n=8, L=2.0)
    u0 = InitialCondition("cosine", offset=0.0, amplitude=1.0,
                          cycles=3).field_on(lat2)
    column = np.cos(3 * np.pi * lat2.axis_centers() / 2.0)[:, None]
    assert np.array_equal(u0, np.broadcast_to(column, (8, 8)))
    out = mean_field(init, 0.2, lat)
    assert out.min() >= 0.5 - 1e-9
    assert out.max() <= 2.0 + 1e-9


def test_snap_to_grid():
    assert snap_to_grid(0.1, 0.0125) == 8
    with pytest.raises(ValueError, match="not a multiple"):
        snap_to_grid(0.1, 0.015)


def test_simulate_t_zero_records_initial(small_setup):
    from riesz_she import Region
    lat, _, cov = small_setup
    init = InitialCondition("constant", value=1.0)
    blk, = simulate(cov, NonlinearitySpec("linear"), init, 0.0, 0.01, seed=5,
                    replica_ids=[0], reducers=with_g_r(
                        init, lat, [Region("ball", 1.0)], [0.0]))
    assert blk.replica_ids == [0]
    assert blk.reduced[0.0][0].tolist() == [[0.0]]


def test_simulate_determinism(small_setup):
    from riesz_she import Region
    lat, _, cov = small_setup
    init = InitialCondition("constant", value=1.0)
    kwargs = dict(T=0.1, dt=0.0125, seed=9, replica_ids=[3],
                  reducers=with_g_r(init, lat, [Region("ball", 2.0)],
                                    [0.05, 0.1], np.copy))
    a, = simulate(cov, NonlinearitySpec("linear"), init, **kwargs)
    b, = simulate(cov, NonlinearitySpec("linear"), init, **kwargs)
    for t in (0.05, 0.1):
        assert a.reduced[t][0].shape == (1, 1)
        assert np.array_equal(a.reduced[t][0], b.reduced[t][0])
    assert np.array_equal(a.reduced[0.1][1], b.reduced[0.1][1])


def test_simulate_off_grid_record_time(small_setup):
    from riesz_she import Region
    lat, _, cov = small_setup
    init = InitialCondition("constant", value=1.0)
    with pytest.raises(ValueError, match="not a multiple"):
        simulate(cov, NonlinearitySpec("linear"), init, 0.1, 0.0125, seed=0,
                 replica_ids=[0], reducers=with_g_r(
                     init, lat, [Region("ball", 1.0)], [0.03]))


def test_weak_comparison_coupled_noise(small_setup):
    # ordered constant starts, monotone sigma >= 0, identical slices
    lat, _, cov = small_setup
    sigma = NonlinearitySpec("clipped-linear")
    dt = 0.005
    mult = heat_multiplier(lat, dt)
    for rid in range(20):
        lo = FieldState(SpatialField(lat, np.full(lat.shape, 0.5)), 0, dt)
        hi = FieldState(SpatialField(lat, np.full(lat.shape, 2.0)), 0, dt)
        g = stream_for(77, rid)
        for _ in range(40):
            sl = sample_slice(cov, dt, g.standard_normal(lat.shape))
            step(lo, sl, sigma, mult)
            step(hi, sl, sigma, mult)
            assert np.all(lo.field.values <= hi.field.values + 1e-9)


def test_stationarity_proxy(small_setup):
    # mean and variance of u(t, x) over replicas do not depend on x
    lat, _, cov = small_setup
    sigma = NonlinearitySpec("linear")
    dt = 0.005
    mult = heat_multiplier(lat, dt)
    fields = []
    for rid in range(400):
        state = FieldState(SpatialField(lat, np.ones(lat.shape)), 0, dt)
        g = stream_for(13, rid)
        for _ in range(20):
            sl = sample_slice(cov, dt, g.standard_normal(lat.shape))
            step(state, sl, sigma, mult)
        fields.append(state.field.values)
    stack = np.stack(fields)
    cell_means = stack.mean(axis=0)
    cell_se = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    assert np.all(np.abs(cell_means - cell_means.mean()) <= 4 * cell_se)


def test_fourth_moment_stable_under_dt_halving(small_setup):
    lat, _, cov = small_setup
    sigma = NonlinearitySpec("linear")

    def fourth_moment(dt, n_steps, seed):
        mult = heat_multiplier(lat, dt)
        vals = []
        for rid in range(400):
            state = FieldState(SpatialField(lat, np.ones(lat.shape)), 0, dt)
            g = stream_for(seed, rid)
            for _ in range(n_steps):
                sl = sample_slice(cov, dt, g.standard_normal(lat.shape))
                step(state, sl, sigma, mult)
            # stationarity: average the moment over cells as well
            vals.append(np.mean(state.field.values ** 4))
        return np.mean(vals)

    m_coarse = fourth_moment(0.005, 20, 101)
    m_fine = fourth_moment(0.0025, 40, 102)
    assert np.isfinite(m_coarse) and np.isfinite(m_fine)
    assert abs(m_fine - m_coarse) <= 0.10 * m_coarse


def test_step_blowup_names_block_row(small_setup):
    lat, _, _ = small_setup
    noise = np.zeros((3,) + lat.shape)
    noise[1, 5] = np.inf
    state = FieldState(SpatialField(lat, np.ones_like(noise)), 0, 0.01)
    with pytest.raises(InstabilityError, match="reduce dt") as info:
        step(state, noise, NonlinearitySpec("linear"),
             heat_multiplier(lat, 0.01))
    assert info.value.row == 1


def _copy_and_reduce(block, sigma, lag_cells, window):
    # each row: its flattened field, then what each pipeline reducer makes
    # of it (1 + len(lag_cells) lag means, one window mean)
    return np.concatenate([block.reshape(len(block), -1),
                           sigma_lag_means(block, sigma, lag_cells),
                           window_sigma_mean(block, sigma, window)[:, None]],
                          axis=1)


@pytest.mark.parametrize("d, n, L, n_ids", [(1, 64, 8.0, 5), (2, 64, 4.0, 10)],
                         ids=["d1-one-block", "d2-partial-last-block"])
def test_block_stepping_matches_one_id_blocks(d, n, L, n_ids):
    from riesz_she import Region
    from riesz_she.engine import block_size
    lat = Lattice(d=d, n=n, L=L)
    cov = build_embedding(lat, RieszSpec(d, 0.5))
    assert n_ids > 1 and (n_ids > block_size(lat)) == (d == 2)
    sigma = NonlinearitySpec("sine-affine", a=0.5, b=0.8, c=0.1)
    init = InitialCondition("constant", value=1.0)
    reducer = functools.partial(
        _copy_and_reduce, sigma=sigma,
        lag_cells=[(2,) + (0,) * (d - 1), (3,) * d],
        window=Region("box", 0.5).cells(lat))
    times = [0.0, 0.004, 0.01]
    kwargs = dict(T=0.01, dt=0.002, seed=2**63 + 3, reducers=with_g_r(
        init, lat, [Region("ball", 1.0), Region("box", 0.5)], times, reducer))
    ids = [7 * i + 1 for i in range(n_ids)]
    blocks = simulate(cov, sigma, init, replica_ids=ids, **kwargs)
    B = block_size(lat)
    assert [blk.replica_ids for blk in blocks] == \
        [ids[lo:lo + B] for lo in range(0, n_ids, B)]
    averages = {t: np.concatenate([blk.reduced[t][0] for blk in blocks])
                for t in times}
    reduced = {t: np.concatenate([blk.reduced[t][1] for blk in blocks])
               for t in times}
    for i, rid in enumerate(ids):
        alone, = simulate(cov, sigma, init, replica_ids=[rid], **kwargs)
        assert alone.reduced.keys() == {0.0, 0.004, 0.01}
        for t in times:
            assert len(alone.reduced[t]) == 2
            assert averages[t].shape == (n_ids, 2)
            assert np.array_equal(averages[t][i], alone.reduced[t][0][0])
            # the field, 3 lag means and the window mean
            assert reduced[t].shape == (n_ids, lat.n_cells + 3 + 1)
            assert np.array_equal(reduced[t][i], alone.reduced[t][1][0])


def _check_against_a_loop_with_fresh_arrays(d, n, L):
    # simulate steps a block through buffers it reuses every step; one
    # replica stepped by hand, every array new, must give the same bytes.
    # Every sigma kind: linear returns the field itself, which the step
    # must not write into
    for kind in ("linear", "affine", "sine-affine", "clipped-linear"):
        _check_one_sigma(d, n, L,
                         NonlinearitySpec(kind, a=0.5, b=0.8, c=0.1))


def _check_one_sigma(d, n, L, sigma):
    from riesz_she import Region
    lat = Lattice(d=d, n=n, L=L)
    cov = build_embedding(lat, RieszSpec(d, 0.5))
    init = InitialCondition("constant", value=1.0)
    dt, n_steps, seed, rid = 0.002, 5, 2**63 + 3, 8
    times = {0: 0.0, 2: 0.004, 5: 0.01}
    regions = [Region("ball", 1.0), Region("box", 0.5)]
    blk, = simulate(cov, sigma, init, n_steps * dt, dt, seed,
                    [rid - 1, rid, rid + 1],
                    with_g_r(init, lat, regions, times.values(), np.copy))

    # the mild-form step u <- S_dt[u + sigma(u) dW], written out here, not
    # through step, so a kick written into sigma's result would show
    g = stream_for(seed, rid)
    u = init.field_on(lat)
    averages, fields = {}, {}
    for k in range(n_steps + 1):
        if k:
            sl = sample_slice(cov, dt, g.standard_normal(lat.shape))
            u = heat_semigroup(u + sigma(u) * sl, lat, dt)
        if k in times:
            t = times[k]
            fields[t], averages[t] = u, []
            for reg in regions:
                idx = reg.cells(lat)
                mean = mean_field(init, t, lat).reshape(-1)[idx]
                diff = u.reshape(-1)[idx] - mean
                averages[t].append(float(lat.cell_volume * diff.sum()))
    assert blk.replica_ids == [rid - 1, rid, rid + 1]
    assert {t: r[0][1].tolist() for t, r in blk.reduced.items()} \
        == averages
    assert blk.reduced.keys() == fields.keys()
    for t, u in fields.items():
        assert np.array_equal(blk.reduced[t][1][1], u)


@pytest.mark.parametrize("d, n, L", [(1, 64, 8.0), (2, 32, 4.0)],
                         ids=["d1", "d2"])
def test_simulate_matches_a_loop_with_fresh_arrays(d, n, L):
    _check_against_a_loop_with_fresh_arrays(d, n, L)


@pytest.mark.parametrize("chunk", [1, 3, 100], ids=["K1", "K3", "K-all"])
@pytest.mark.parametrize("d, n, L", [(1, 64, 8.0), (2, 32, 4.0)],
                         ids=["d1", "d2"])
def test_draw_chunks_match_a_loop_with_fresh_arrays(monkeypatch, d, n, L,
                                                    chunk):
    # the draw budget sets K steps of normals per call; 5 steps of a block
    # of 3 replicas then draw in chunks of K, the last one shorter, and
    # K = 100 is clipped to the 5 steps
    from riesz_she import engine
    monkeypatch.setattr(engine, "DRAW_BUDGET", chunk * 3 * n ** d)
    calls = []

    class Counted:
        def __init__(self, g):
            self.g = g

        def standard_normal(self, out):
            calls.append(len(out))
            return self.g.standard_normal(out=out)

    monkeypatch.setattr(engine, "stream_for",
                        lambda seed, rid: Counted(stream_for(seed, rid)))
    _check_against_a_loop_with_fresh_arrays(d, n, L)
    K = min(chunk, 5)
    assert calls == 4 * [min(K, 5 - k) for k in range(0, 5, K)
                         for _ in range(3)]  # once per sigma kind
