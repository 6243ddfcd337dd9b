"""Time stepping for the stochastic heat equation in mild form.

One step is the exponential-Euler update u <- S_dt[u + sigma(u) * dW],
where S_t is the periodic heat semigroup applied spectrally and dW is one
step-integrated noise slice (variance proportional to dt).
"""

import numpy as np

from . import observables
from .noise import SpatialField, sample_slice, spectral_multiply
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


class NonlinearitySpec:
    """Lipschitz nonlinearity sigma acting cellwise on the field.

    kinds: linear sigma(x)=x; affine(a,b) sigma(x)=a*x+b;
    sine-affine(a,b,c) sigma(x)=a*sin(x)+b*x+c; clipped-linear sigma(x)=max(x,0).
    """

    def __init__(self, kind, a=1.0, b=0.0, c=0.0):
        if kind not in _SIGMA_KINDS:
            raise ValueError("unknown sigma kind %r (choose from %s)"
                             % (kind, ", ".join(_SIGMA_KINDS)))
        self.kind, self.a, self.b, self.c = kind, a, b, c

    def __repr__(self):
        return "NonlinearitySpec(kind=%r, a=%r, b=%r, c=%r)" % (
            self.kind, self.a, self.b, self.c)

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


class InitialCondition:
    """u0 = value, or the cosine start
    offset + amplitude * cos(cycles * pi * x_0 / L) along the first axis."""

    def __init__(self, kind, value=1.0, offset=0.0, amplitude=0.0, cycles=1):
        if kind not in ("constant", "cosine"):
            raise ValueError("unknown initial-condition kind %r" % (kind,))
        if not np.isfinite([value, offset, amplitude]).all():
            raise ValueError("initial-condition value, offset and amplitude "
                             "must be finite, got %r, %r and %r"
                             % (value, offset, amplitude))
        self.kind, self.value, self.offset = kind, value, offset
        self.amplitude, self.cycles = amplitude, cycles

    def __repr__(self):
        return ("InitialCondition(kind=%r, value=%r, offset=%r, amplitude=%r, "
                "cycles=%r)" % (self.kind, self.value, self.offset,
                                self.amplitude, self.cycles))

    def field_on(self, lattice):
        """u0 at the lattice's cell centers, as a new array."""
        if self.kind == "constant":
            return np.full(lattice.shape, self.value, dtype=np.float64)
        x0 = lattice.center_grids()[0]
        values = self.offset + self.amplitude * np.cos(
            self.cycles * np.pi * x0 / lattice.L)
        return np.broadcast_to(values, lattice.shape).copy()


class FieldState:
    def __init__(self, field, step_index, dt):
        self.field, self.step_index, self.dt = field, step_index, dt

    @property
    def time(self):
        return self.step_index * self.dt


class BlockResult:
    """What simulate records for one block; row i is replica_ids[i]."""

    def __init__(self, replica_ids, region_averages=None, reduced=None,
                 fields_at_times=None):
        # time -> (B, n_regions) array, and time -> the reducer's (B, ...)
        # array; fields_at_times stays empty, perfbench reads it
        self.replica_ids = replica_ids
        self.region_averages = {} if region_averages is None else region_averages
        self.reduced = {} if reduced is None else reduced
        self.fields_at_times = {} if fields_at_times is None else fields_at_times


def heat_multiplier(lattice, tau):
    """Heat symbol exp(-|xi|^2 tau / 2) on the rfft half-spectrum."""
    freqs = [2.0 * np.pi * np.fft.fftfreq(lattice.n, d=lattice.h)
             for _ in range(lattice.d - 1)]
    freqs.append(2.0 * np.pi * np.fft.rfftfreq(lattice.n, d=lattice.h))
    grids = np.meshgrid(*freqs, indexing="ij", sparse=True)
    xi2 = sum(g ** 2 for g in grids)
    return np.exp(-0.5 * xi2 * tau)


def heat_semigroup(values, lattice, tau):
    """Periodic convolution of a field on the lattice with the heat kernel
    p_tau, done spectrally, into a new array."""
    if tau < 0:
        raise ValueError("tau must be nonnegative, got %r" % (tau,))
    if tau == 0:
        return values.copy()
    return spectral_multiply(values, heat_multiplier(lattice, tau))


def step(state, noise, sigma, mult, kick=None, spec=None, scratch=None):
    """One exponential-Euler step of one field or of a (B, *grid) block of
    fields, in place: the new field overwrites state.field.values.

    noise is the slice dW, an array shaped like the field. mult is
    heat_multiplier(lattice, state.dt). The kick u + sigma(u) dW is
    written into kick, with scratch as sigma's scratch, and its spectrum
    into spec (spectral_multiply). Raises on blow-up, naming the first
    failing row of a block.
    """
    lat = state.field.lattice
    u = state.field.values
    kick = sigma(u, kick, scratch)
    kick *= noise
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
        if not 0 <= t < np.inf:
            raise ValueError("record time %r is negative or not finite" % t)
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
    return heat_semigroup(init.field_on(lattice), lattice, t)


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
    """Run replicas from 0 to T; one BlockResult per block of ids, in the
    order given.

    The ids are stepped in consecutive blocks of block_size(lattice), one
    (B, *grid) array per block, through buffers allocated for the first
    block (a short last block uses their leading rows). Row i draws each
    step's n^d normals, in turn, from the one stream keyed by (seed,
    replica id); they are drawn K steps at a time into a (B, K, *grid)
    buffer, K = DRAW_BUDGET // (B n^d) clipped to [1, n_steps], and a
    stream fills its row in stream order, so no byte depends on K.
    mean_fields maps record time to the deterministic mean (heat flow of
    the initial condition). At record time t a block keeps
    region_averages[t], a (B, n_regions) array, and reduced[t] =
    reducers[t](block) if reducers has t: a picklable function of the
    (B, *grid) block of fields, called once per block, that returns an
    array whose leading axis is the block's rows. Each row must depend on
    its own field only; the block is a reused buffer, valid only during
    the call.
    """
    lat = noise_cov.lattice
    check_margin(lat, regions, T)
    reducers = reducers or {}
    n_steps, record_steps = time_grid(T, dt, record_times)
    cells = [reg.cells(lat) for reg in regions]
    # in-region mean values per (record step, region)
    means = {k: [mean_fields[t].reshape(-1)[idx] for idx in cells]
             for k, t in record_steps.items()}
    mult = heat_multiplier(lat, dt)
    u0 = init.field_on(lat)
    ids = list(replica_ids)
    B = min(block_size(lat), len(ids)) or 1
    u = np.empty((B,) + lat.shape)
    K = max(1, min(n_steps, DRAW_BUDGET // u.size))
    buffers = (u, np.empty((B, K) + lat.shape), np.empty_like(u),
               np.empty_like(u), np.empty_like(u),
               np.empty((B,) + mult.shape, complex))

    def record(res, state):
        t, u = record_steps[state.step_index], state.field.values
        flat = u.reshape(len(u), -1)
        g = res.region_averages[t] = np.empty((len(u), len(cells)))
        for r, idx in enumerate(cells):
            # looked up on the module, where perfbench traces the layer
            g[:, r] = observables.region_average(
                flat, idx, means[state.step_index][r], lat.cell_volume)
        if t in reducers:
            res.reduced[t] = reducers[t](u)

    results = []
    for lo in range(0, len(ids), B):
        res = BlockResult(replica_ids=ids[lo:lo + B])
        u, w, colored, kick, scratch, spec = (
            a[:len(res.replica_ids)] for a in buffers)
        u[...] = u0
        streams = [stream_for(seed, rid) for rid in res.replica_ids]
        state = FieldState(field=SpatialField(lat, u), step_index=0, dt=dt)
        if 0 in record_steps:
            record(res, state)
        for k in range(n_steps):
            if k % K == 0:
                m = min(K, n_steps - k)
                for g, row in zip(streams, w):
                    g.standard_normal(out=row[:m])
            noise = sample_slice(noise_cov, dt, w[:, k % K], colored, spec)
            try:
                step(state, noise, sigma, mult, kick, spec, scratch)
            except InstabilityError as exc:
                raise InstabilityError("replica %d: %s" % (
                    res.replica_ids[exc.row], exc)) from exc
            if state.step_index in record_steps:
                record(res, state)
        results.append(res)
    return results
