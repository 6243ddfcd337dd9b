"""Time stepping for the stochastic heat equation in mild form.

One step is the exponential-Euler update u <- S_dt[u + sigma(u) * dW],
where S_t is the periodic heat semigroup applied spectrally and dW is one
step-integrated noise slice (variance proportional to dt).
"""

from dataclasses import dataclass, field

import numpy as np

from . import observables
from .noise import SpatialField, checked_field, sample_slice
from .streams import stream_for


class InstabilityError(Exception):
    """Non-finite field values during time stepping; row is the first
    failing row of a stepped block."""

    def __init__(self, message, row=0):
        super().__init__(message)
        self.row = row


class DegenerateSigmaError(Exception):
    """sigma(1) = 0: the constant solution is exact and no CLT scaling exists."""


_SIGMA_KINDS = ("linear", "affine", "sine-affine", "clipped-linear")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Lipschitz nonlinearity sigma acting cellwise on the field.

    kinds: linear sigma(x)=x; affine(a,b) sigma(x)=a*x+b;
    sine-affine(a,b,c) sigma(x)=a*sin(x)+b*x+c; clipped-linear sigma(x)=max(x,0).
    """
    kind: str
    a: float = 1.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in _SIGMA_KINDS:
            raise ValueError("unknown sigma kind %r (choose from %s)"
                             % (self.kind, ", ".join(_SIGMA_KINDS)))

    def __call__(self, v):
        if self.kind == "linear":
            return np.asarray(v, dtype=np.float64)
        if self.kind == "affine":
            return self.a * np.asarray(v) + self.b
        if self.kind == "sine-affine":
            v = np.asarray(v)
            return self.a * np.sin(v) + self.b * v + self.c
        return np.maximum(np.asarray(v), 0.0)


@dataclass(frozen=True)
class InitialCondition:
    """u0 = value, or the cosine start
    offset + amplitude * cos(cycles * pi * x_0 / L) along the first axis."""
    kind: str  # "constant" | "cosine"
    value: float = 1.0
    offset: float = 0.0
    amplitude: float = 0.0
    cycles: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "cosine"):
            raise ValueError("unknown initial-condition kind %r" % (self.kind,))

    def field_on(self, lattice):
        if self.kind == "constant":
            return SpatialField(lattice, np.full(lattice.shape, self.value))
        x0 = lattice.center_grids()[0]
        values = self.offset + self.amplitude * np.cos(
            self.cycles * np.pi * x0 / lattice.L)
        return SpatialField(lattice,
                            np.broadcast_to(values, lattice.shape).copy())


@dataclass
class FieldState:
    field: SpatialField
    step_index: int
    dt: float

    @property
    def time(self):
        return self.step_index * self.dt


@dataclass
class Trajectory:
    replica_id: int
    region_averages: dict = field(default_factory=dict)  # (time, region_id) -> float
    reduced: dict = field(default_factory=dict)  # time -> reducers[time](field)
    fields_at_times: dict = field(default_factory=dict)  # empty; perfbench reads it


def _heat_multiplier(lattice, tau):
    freqs = [2.0 * np.pi * np.fft.fftfreq(lattice.n, d=lattice.h)
             for _ in range(lattice.d - 1)]
    freqs.append(2.0 * np.pi * np.fft.rfftfreq(lattice.n, d=lattice.h))
    grids = np.meshgrid(*freqs, indexing="ij", sparse=True)
    xi2 = sum(g ** 2 for g in grids)
    return np.exp(-0.5 * xi2 * tau)


def _apply_multiplier(values, mult, lattice):
    """Spectral multiply over the last d axes of a grid or a block of grids."""
    axes = tuple(range(values.ndim - lattice.d, values.ndim))
    spec = np.fft.rfftn(values, axes=axes)
    spec *= mult
    return np.fft.irfftn(spec, s=lattice.shape, axes=axes)


def heat_semigroup(field_in, tau):
    """Periodic convolution with the heat kernel p_tau, done spectrally."""
    if tau < 0:
        raise ValueError("tau must be nonnegative, got %r" % (tau,))
    if tau == 0:
        return SpatialField(field_in.lattice, field_in.values.copy())
    lat = field_in.lattice
    return SpatialField(lat, _apply_multiplier(
        field_in.values, _heat_multiplier(lat, tau), lat))


def step(state, slice_field, sigma, dt, _mult=None):
    """One exponential-Euler step of one field or of a (B, *grid) block of
    fields; raises on blow-up, naming the first failing row of a block."""
    lat = state.field.lattice
    if _mult is None:
        _mult = _heat_multiplier(lat, dt)
    u = state.field.values
    kick = sigma(u) * slice_field.values
    kick += u
    out = _apply_multiplier(kick, _mult, lat)
    if not np.isfinite(out).all():
        rows_ok = np.isfinite(out.reshape(-1, lat.n_cells)).all(axis=1)
        raise InstabilityError(
            "blow-up/instability at step %d (t=%g); reduce dt or amplitude"
            % (state.step_index + 1, (state.step_index + 1) * dt),
            row=int(np.argmin(rows_ok)))
    return FieldState(field=checked_field(lat, out),
                      step_index=state.step_index + 1, dt=dt)


def snap_to_grid(t, dt, what="time"):
    """Step index of t on the dt grid; error if t is off-grid."""
    k = round(t / dt)
    if abs(t - k * dt) > 1e-6 * max(dt, abs(t)):
        raise ValueError("%s %r is not a multiple of dt=%r" % (what, t, dt))
    return int(k)


def time_grid(T, dt, record_times):
    """Step count to the horizon T and {step index: record time}."""
    n_steps = snap_to_grid(T, dt, "horizon T")
    record_steps = {}
    for t in record_times:
        k = snap_to_grid(t, dt, "record time")
        if k > n_steps:
            raise ValueError("record time %r exceeds horizon %r" % (t, T))
        if k in record_steps:
            raise ValueError("record times %r and %r fall on one step"
                             % (record_steps[k], t))
        record_steps[k] = t
    return n_steps, record_steps


def check_margin(lattice, regions, T):
    """Torus must leave a 6*sqrt(T) collar outside every region."""
    collar = 6.0 * np.sqrt(T)
    for reg in regions:
        if lattice.L < reg.radius - 1e-12 + collar:
            raise ValueError("L=%g < R_max+6*sqrt(T)=%g"
                             % (lattice.L, reg.radius + collar))


def mean_field(init, t, lattice):
    """Deterministic heat flow of the initial condition: E u(t, .)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return heat_semigroup(init.field_on(lattice), t)


def block_size(lattice):
    """Replicas stepped together: blocks of about 2**15 cells.

    Every row of a block is computed as it would be alone, so no output
    depends on this size.
    """
    return max(1, 2 ** 15 // lattice.n_cells)


def simulate(noise_cov, sigma, init, T, dt, record_times, regions, seed,
             replica_ids, reducers=None, mean_fields=None):
    """Run replicas from 0 to T and record region averages; one Trajectory
    per id, in the order given.

    The ids are stepped in consecutive blocks of block_size(lattice), one
    (B, *grid) array per block. Each step, row i draws its slice from the
    stream keyed by (seed, replica id, step_index). reducers maps a record
    time to a picklable function of one grid, which then maps each row to
    the numbers a statistic needs, kept in Trajectory.reduced. mean_fields
    maps record time to the precomputed deterministic mean (heat flow of
    the initial condition); it is computed here when absent.
    """
    lat = noise_cov.lattice
    check_margin(lat, regions, T)
    reducers = reducers or {}
    n_steps, record_steps = time_grid(T, dt, record_times)
    if mean_fields is None:
        mean_fields = {t: mean_field(init, t, lat) for t in record_times}
    cells = [reg.cells(lat) for reg in regions]
    # in-region mean values per (record step, region)
    means = {k: [mean_fields[t].values.reshape(-1)[idx] for idx in cells]
             for k, t in record_steps.items()}
    mult = _heat_multiplier(lat, dt)
    u0 = init.field_on(lat).values
    B = block_size(lat)

    trajs = [Trajectory(replica_id=rid) for rid in replica_ids]

    def record(block, state):
        t = record_steps[state.step_index]
        flat = state.field.values.reshape(len(block), -1)
        for r, idx in enumerate(cells):
            # looked up on the module, where perfbench traces the layer
            averages = observables.region_average(
                flat, idx, means[state.step_index][r], lat.cell_volume)
            for tr, g in zip(block, averages):
                tr.region_averages[(t, r)] = g
        reducer = reducers.get(t)
        if reducer is not None:
            for tr, values in zip(block, state.field.values):
                tr.reduced[t] = reducer(values)

    for lo in range(0, len(trajs), B):
        block = trajs[lo:lo + B]
        state = FieldState(field=checked_field(
            lat, np.repeat(u0[np.newaxis], len(block), axis=0)),
            step_index=0, dt=dt)
        w = np.empty((len(block),) + lat.shape)
        if 0 in record_steps:
            record(block, state)
        for k in range(n_steps):
            for tr, row in zip(block, w):
                stream_for(seed, tr.replica_id, k).standard_normal(out=row)
            sl = sample_slice(noise_cov, dt, w)
            try:
                state = step(state, sl, sigma, dt, _mult=mult)
            except InstabilityError as exc:
                raise InstabilityError("replica %d: %s" % (
                    block[exc.row].replica_id, exc)) from exc
            if state.step_index in record_steps:
                record(block, state)
    return trajs
