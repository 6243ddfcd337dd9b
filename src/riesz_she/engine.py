"""Time stepping for the stochastic heat equation in mild form.

One step is the exponential-Euler update u <- S_dt[u + sigma(u) * dW],
where S_t is the periodic heat semigroup applied spectrally and dW is one
step-integrated noise slice (variance proportional to dt).
"""

import numpy as np

from .noise import SpatialField, sample_slice, spectral_multiply
from .streams import stream_for


class InstabilityError(Exception):
    """Non-finite field values during time stepping; row is the first
    failing row of a stepped block."""

    def __init__(self, message, row=0):
        super().__init__(message)
        self.row = row


class DegenerateSigmaError(Exception):
    """G_R has no fluctuation to scale: sigma(u0) = 0 at every cell, so u
    stays at its mean, or a sample's variance is 0."""


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

    def __call__(self, v):
        """sigma(v). linear returns v itself, so callers must not write
        into the result."""
        v = np.asarray(v, dtype=np.float64)
        if self.kind == "linear":
            return v
        if self.kind == "affine":
            return self.a * v + self.b
        if self.kind == "sine-affine":
            return self.a * np.sin(v) + self.b * v + self.c
        return np.maximum(v, 0.0)


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

    def __init__(self, replica_ids, reduced=None, fields_at_times=None):
        # time -> the tuple of the reducers' (B, ...) arrays; fields_at_times
        # stays empty, perfbench reads it
        self.replica_ids = replica_ids
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


def step(state, noise, sigma, mult, spec=None):
    """One exponential-Euler step of one field or of a (B, *grid) block of
    fields, in place: the new field overwrites state.field.values.

    noise is the slice dW, an array shaped like the field. mult is
    heat_multiplier(lattice, state.dt). The kick u + sigma(u) dW goes
    through the complex half-spectrum spec (spectral_multiply). Raises on
    blow-up, naming the first failing row of a block.
    """
    lat = state.field.lattice
    u = state.field.values
    kick = sigma(u) * noise
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


def simulate(noise_cov, sigma, init, T, dt, seed, replica_ids, reducers):
    """Run replicas from 0 to T; one BlockResult per block of ids, in the
    order given.

    The ids are stepped in consecutive blocks of block_size(lattice), one
    (B, *grid) array per block; the field, the normals and one complex
    half-spectrum are allocated for the first block (a short last block
    uses their leading rows). Row i draws each step's n^d normals, in
    turn, from the one stream keyed by (seed, replica id); they are drawn
    K steps at a time into a (B, K, *grid) buffer, where each step's slice
    is colored in place, K = DRAW_BUDGET // (B n^d) clipped to
    [1, n_steps], and a stream fills its row in stream order, so no byte
    depends on K.
    reducers maps each record time t to a tuple of picklable functions of
    the (B, *grid) block of fields; at t a block keeps reduced[t], the
    tuple of their arrays, each with the block's rows on its leading axis.
    Each function is called once per block, each row must depend on its
    own field only, and the block is a reused buffer, valid only during
    the call.
    """
    lat = noise_cov.lattice
    n_steps, record_steps = time_grid(T, dt, reducers)
    mult = heat_multiplier(lat, dt)
    u0 = init.field_on(lat)
    ids = list(replica_ids)
    B = min(block_size(lat), len(ids)) or 1
    u = np.empty((B,) + lat.shape)
    K = max(1, min(n_steps, DRAW_BUDGET // u.size))
    buffers = (u, np.empty((B, K) + lat.shape),
               np.empty((B,) + mult.shape, complex))

    def record(res, state):
        t = record_steps[state.step_index]
        res.reduced[t] = tuple(f(state.field.values) for f in reducers[t])

    results = []
    for lo in range(0, len(ids), B):
        res = BlockResult(replica_ids=ids[lo:lo + B])
        u, w, spec = (a[:len(res.replica_ids)] for a in buffers)
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
            noise = sample_slice(noise_cov, dt, w[:, k % K], w[:, k % K], spec)
            try:
                step(state, noise, sigma, mult, spec)
            except InstabilityError as exc:
                raise InstabilityError("replica %d: %s" % (
                    res.replica_ids[exc.row], exc)) from exc
            if state.step_index in record_steps:
                record(res, state)
        results.append(res)
    return results
