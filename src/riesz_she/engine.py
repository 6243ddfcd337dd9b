"""Time stepping for the stochastic heat equation in mild form.

One step is the exponential-Euler update u <- S_dt[u + sigma(u) * dW],
where S_t is the periodic heat semigroup applied spectrally and dW is one
step-integrated noise slice (variance proportional to dt).
"""

from dataclasses import dataclass, field

import numpy as np

from . import observables
from .noise import (SpatialField, checked_field, sample_slice,
                    spectral_multiply)
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

    def __call__(self, v, out=None, scratch=None):
        """sigma(v), written into out when given. sine-affine keeps b * v in
        scratch, an array like out, or in a new one when scratch is None."""
        v = np.asarray(v, dtype=np.float64)
        if out is None:
            out = np.empty_like(v)
        if self.kind == "linear":
            np.copyto(out, v)
        elif self.kind == "affine":
            np.multiply(self.a, v, out=out)
            out += self.b
        elif self.kind == "sine-affine":
            np.sin(v, out=out)
            out *= self.a
            out += np.multiply(self.b, v, out=scratch)
            out += self.c
        else:
            np.maximum(v, 0.0, out=out)
        return out


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
    reduced: dict = field(default_factory=dict)  # time -> row's reducer result
    fields_at_times: dict = field(default_factory=dict)  # empty; perfbench reads it


def heat_multiplier(lattice, tau):
    """Heat symbol exp(-|xi|^2 tau / 2) on the rfft half-spectrum."""
    freqs = [2.0 * np.pi * np.fft.fftfreq(lattice.n, d=lattice.h)
             for _ in range(lattice.d - 1)]
    freqs.append(2.0 * np.pi * np.fft.rfftfreq(lattice.n, d=lattice.h))
    grids = np.meshgrid(*freqs, indexing="ij", sparse=True)
    xi2 = sum(g ** 2 for g in grids)
    return np.exp(-0.5 * xi2 * tau)


def heat_semigroup(field_in, tau):
    """Periodic convolution with the heat kernel p_tau, done spectrally."""
    if tau < 0:
        raise ValueError("tau must be nonnegative, got %r" % (tau,))
    if tau == 0:
        return SpatialField(field_in.lattice, field_in.values.copy())
    lat = field_in.lattice
    return SpatialField(lat, spectral_multiply(field_in.values,
                                               heat_multiplier(lat, tau)))


def step(state, slice_field, sigma, mult, kick=None, spec=None,
         scratch=None):
    """One exponential-Euler step of one field or of a (B, *grid) block of
    fields, in place: the new field overwrites state.field.values.

    mult is heat_multiplier(lattice, state.dt). The kick u + sigma(u) dW is
    written into kick, with scratch as sigma's scratch, and its spectrum
    into spec (spectral_multiply). Raises on blow-up, naming the first
    failing row of a block.
    """
    lat = state.field.lattice
    u = state.field.values
    kick = sigma(u, kick, scratch)
    kick *= slice_field.values
    kick += u
    spectral_multiply(kick, mult, u, spec)
    state.step_index += 1
    if not np.isfinite(u).all():
        rows_ok = np.isfinite(u.reshape(-1, lat.n_cells)).all(axis=1)
        raise InstabilityError(
            "blow-up/instability at step %d (t=%g); reduce dt or amplitude"
            % (state.step_index, state.time), row=int(np.argmin(rows_ok)))


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


# normals a block draws at once, in cells (float64: 1 MB); the draws of
# several steps share one buffer, so each stream is called once per chunk
DRAW_BUDGET = 2 ** 17


def block_size(lattice):
    """Replicas stepped together: blocks of about 2**15 cells.

    Every row of a block is computed as it would be alone, so no output
    depends on this size.
    """
    return max(1, 2 ** 15 // lattice.n_cells)


def simulate(noise_cov, sigma, init, T, dt, record_times, regions, seed,
             replica_ids, mean_fields, reducers=None):
    """Run replicas from 0 to T and record region averages; one Trajectory
    per id, in the order given.

    The ids are stepped in consecutive blocks of block_size(lattice), one
    (B, *grid) array per block, and every step of a block writes into the
    same arrays. Row i draws each step's n^d normals, in turn, from the one
    stream keyed by (seed, replica id); they are drawn K steps at a time
    into a (B, K, *grid) buffer, K = DRAW_BUDGET // (B n^d) clipped to
    [1, n_steps], and a stream fills its row in stream order, so no byte
    depends on K. mean_fields maps record time to the deterministic mean
    (heat flow of the initial condition). reducers maps a record time to a
    picklable function of the (B, *grid) block of fields, called once per
    block, that returns one result per row (a sequence of length B): the
    numbers a statistic needs, kept in Trajectory.reduced. Each result must
    depend on its own row only, and the block is a reused buffer, valid
    only during the call.
    """
    lat = noise_cov.lattice
    check_margin(lat, regions, T)
    reducers = reducers or {}
    n_steps, record_steps = time_grid(T, dt, record_times)
    cells = [reg.cells(lat) for reg in regions]
    # in-region mean values per (record step, region)
    means = {k: [mean_fields[t].values.reshape(-1)[idx] for idx in cells]
             for k, t in record_steps.items()}
    mult = heat_multiplier(lat, dt)
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
            for tr, result in zip(block, reducer(state.field.values)):
                tr.reduced[t] = result

    for lo in range(0, len(trajs), B):
        block = trajs[lo:lo + B]
        streams = [stream_for(seed, tr.replica_id) for tr in block]
        u = np.repeat(u0[np.newaxis], len(block), axis=0)
        K = max(1, min(n_steps, DRAW_BUDGET // u.size))
        w = np.empty((len(block), K) + lat.shape)
        colored, kick, scratch = (np.empty_like(u), np.empty_like(u),
                                  np.empty_like(u))
        spec = np.empty(u.shape[:1] + mult.shape, complex)
        state = FieldState(field=checked_field(lat, u), step_index=0, dt=dt)
        if 0 in record_steps:
            record(block, state)
        for k in range(n_steps):
            if k % K == 0:
                m = min(K, n_steps - k)
                for g, row in zip(streams, w):
                    g.standard_normal(out=row[:m])
            sl = sample_slice(noise_cov, dt, w[:, k % K], colored, spec)
            try:
                step(state, sl, sigma, mult, kick, spec, scratch)
            except InstabilityError as exc:
                raise InstabilityError("replica %d: %s" % (
                    block[exc.row].replica_id, exc)) from exc
            if state.step_index in record_steps:
                record(block, state)
    return trajs
