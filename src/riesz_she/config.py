"""Experiment configuration: flat key = value text with [section] headers.

Top-level keys describe the experiment; [lattice], [sigma] and [init]
sections describe the discretization, the nonlinearity and the initial
condition. Lists are comma separated. Defaults: dt = h^2/4 (diffusive
stability margin), record_times = [T], ball regions at the origin.
"""

import hashlib

import numpy as np

from .engine import InitialCondition, NonlinearitySpec, time_grid
from .noise import Lattice, RieszSpec
from .observables import Region, check_margin
from .stats import lag_distances

KINDS = ("noise-validate", "variance-limit", "clt", "fclt", "tightness",
         "decay", "lemma31", "constants")

# Fewest replicas each kind's statistics accept: the KS distance, the decay
# check, the noise covariance diagnostic and the eta estimate all need 100.
# variance-limit and fclt estimate eta only when it is not exact; with an
# exact eta they still need a sample variance (2 replicas) and a full-rank
# covariance over the record times (one replica more than there are times).
MIN_REPLICAS = {"noise-validate": 100, "clt": 100, "decay": 100,
                "variance-limit": 100, "fclt": 100}


# The keys parse_config reads, per section ("" is the top level); any other
# is a config error. store_fields is retired and ignored.
KEYS = {"": {"kind", "d", "beta", "T", "dt", "record_times", "R_list",
             "region_kind", "n_replicas", "seed", "lags", "y_list",
             "p_moment", "store_fields"},
        "lattice": {"n", "L"},
        "sigma": {"kind", "a", "b", "c"},
        "init": {"kind", "value", "offset", "amplitude", "cycles"}}


class ConfigError(Exception):
    pass


def _parse_sections(text):
    sections = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in KEYS:
                raise ConfigError("line %d: unknown section [%s] (choose "
                                  "from %s)" % (lineno, current, ", ".join(
                                      "[%s]" % k for k in KEYS if k)))
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r"
                              % (lineno, raw.strip()))
        key, val = (v.strip() for v in line.split("=", 1))
        if key not in KEYS[current]:
            raise ConfigError("line %d: unknown key %r in %s" % (
                lineno, key, "[%s]" % current if current else "the top level"))
        sections[current][key] = val
    return sections


def _get(sec, key, conv, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError("missing required key %r" % (key,))
        return default
    try:
        return conv(sec[key])
    except Exception as exc:
        raise ConfigError("key %r: cannot parse %r (%s)"
                          % (key, sec[key], exc))


def _finite(s):
    v = float(s)
    if not np.isfinite(v):
        raise ValueError("not a finite number")
    return v


def _float_list(s):
    return [float(v) for v in s.split(",") if v.strip() != ""]


def _int_list(s):
    return [int(v) for v in s.split(",") if v.strip() != ""]


class ExperimentConfig:
    def __init__(self, kind, spec, lattice, sigma, init, T, dt, record_times,
                 R_list, region_kind, n_replicas, seed, lags=None,
                 y_list=None, p_moment=2):
        self.kind, self.spec, self.lattice = kind, spec, lattice
        self.sigma, self.init, self.T, self.dt = sigma, init, T, dt
        self.record_times, self.R_list = record_times, R_list
        self.region_kind, self.n_replicas, self.seed = (
            region_kind, n_replicas, seed)
        self.lags, self.y_list, self.p_moment = lags, y_list, p_moment

    @property
    def eta_exact(self):
        """E u(t,.) = u0 for centered noise, so eta(s) = sigma(u0) exactly
        when u0 is constant and sigma is affine."""
        return self.init.kind == "constant" and \
            self.sigma.kind in ("linear", "affine")

    @property
    def lag_cells(self):
        """Lag offsets in cells along the first axis: the lags key, else for
        decay about 12 log-spaced from 2 cells to L/4, for noise-validate
        0 and the powers of two up to min(32, n/2)."""
        lags = self.lags
        if lags is None and self.kind == "decay":
            hi = int(self.lattice.L / 4.0 / self.lattice.h)
            lags = sorted(set(int(round(v)) for v in np.geomspace(2, hi, 12)))
        elif lags is None:
            lags = [k for k in (0, 1, 2, 4, 8, 16, 32)
                    if k <= self.lattice.n // 2]
        return [(k,) + (0,) * (self.spec.d - 1) for k in lags]

    @property
    def regions(self):
        return [Region(kind=self.region_kind, radius=R) for R in self.R_list]

    def canonical_text(self):
        lines = [
            "kind = %s" % self.kind,
            "d = %d" % self.spec.d,
            "beta = %.17g" % self.spec.beta,
            "T = %.17g" % self.T,
            "dt = %.17g" % self.dt,
            "record_times = %s" % ", ".join("%.17g" % t
                                            for t in self.record_times),
            "R_list = %s" % ", ".join("%.17g" % r for r in self.R_list),
            "region_kind = %s" % self.region_kind,
            "n_replicas = %d" % self.n_replicas,
            "seed = %d" % self.seed,
            "p_moment = %d" % self.p_moment,
        ]
        if self.lags is not None:
            lines.append("lags = %s" % ", ".join(str(v) for v in self.lags))
        if self.y_list is not None:
            lines.append("y_list = %s" % ", ".join("%.17g" % v
                                                   for v in self.y_list))
        lines += ["", "[lattice]",
                  "n = %d" % self.lattice.n,
                  "L = %.17g" % self.lattice.L]
        lines += ["", "[sigma]", "kind = %s" % self.sigma.kind]
        if self.sigma.kind in ("affine", "sine-affine"):
            lines += ["a = %.17g" % self.sigma.a, "b = %.17g" % self.sigma.b]
        if self.sigma.kind == "sine-affine":
            lines.append("c = %.17g" % self.sigma.c)
        lines += ["", "[init]"]
        if self.init.kind == "constant":
            lines += ["kind = constant", "value = %.17g" % self.init.value]
        else:
            lines += ["kind = cosine",
                      "offset = %.17g" % self.init.offset,
                      "amplitude = %.17g" % self.init.amplitude,
                      "cycles = %d" % self.init.cycles]
        return "\n".join(lines) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _build_init(sec):
    kind = sec.get("kind", "constant")
    if kind == "constant":
        return InitialCondition(kind="constant",
                                value=_get(sec, "value", _finite, default=1.0))
    if kind == "cosine":
        return InitialCondition(
            kind="cosine",
            offset=_get(sec, "offset", _finite, required=True),
            amplitude=_get(sec, "amplitude", _finite, required=True),
            cycles=_get(sec, "cycles", int, default=1))
    raise ConfigError("unknown init kind %r (constant or cosine)" % (kind,))


def parse_config(text, overrides=None):
    """ExperimentConfig from config text. overrides ({key: text}) replace
    top-level keys before any value is converted or checked."""
    sections = _parse_sections(text)
    top = {**sections[""], **(overrides or {})}
    lat_sec = sections.get("lattice", {})
    sig_sec = sections.get("sigma", {})
    init_sec = sections.get("init", {})

    kind = _get(top, "kind", str, required=True)
    d = _get(top, "d", int, required=True)
    beta = _get(top, "beta", float, required=True)
    n = _get(lat_sec, "n", int, required=True)
    L = _get(lat_sec, "L", _finite, required=True)
    try:
        spec = RieszSpec(d=d, beta=beta)
        lattice = Lattice(d=d, n=n, L=L)
        sigma = NonlinearitySpec(
            kind=sig_sec.get("kind", "linear"),
            a=_get(sig_sec, "a", _finite, default=1.0),
            b=_get(sig_sec, "b", _finite, default=0.0),
            c=_get(sig_sec, "c", _finite, default=0.0))
        init = _build_init(init_sec)
    except ValueError as exc:
        raise ConfigError(str(exc))

    T = _get(top, "T", _finite, default=0.0)
    dt_default = lattice.h ** 2 / 4.0
    if T > 0:
        # snap the default down so T is a whole number of steps
        dt_default = T / int(np.ceil(T / dt_default - 1e-9))
    dt = _get(top, "dt", _finite, default=dt_default)
    record_times = _get(top, "record_times", _float_list,
                        default=[T] if T > 0 else [])
    R_list = _get(top, "R_list", _float_list, default=[])
    region_kind = _get(top, "region_kind", str, default="ball")
    n_replicas = _get(top, "n_replicas", int, default=100)
    seed = _get(top, "seed", int, default=0)
    lags = _get(top, "lags", _int_list, default=None)
    y_list = _get(top, "y_list", _float_list, default=None)
    p_moment = _get(top, "p_moment", int, default=2)

    cfg = ExperimentConfig(
        kind=kind, spec=spec, lattice=lattice, sigma=sigma, init=init,
        T=T, dt=dt, record_times=record_times, R_list=R_list,
        region_kind=region_kind, n_replicas=n_replicas, seed=seed,
        lags=lags, y_list=y_list, p_moment=p_moment)
    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.kind not in KINDS:
        raise ConfigError("unknown experiment kind %r (choose from %s)"
                          % (cfg.kind, ", ".join(KINDS)))
    if cfg.T < 0:
        raise ConfigError("T must be nonnegative, got %g" % cfg.T)
    if cfg.dt <= 0:
        raise ConfigError("dt must be positive, got %g" % cfg.dt)
    if cfg.region_kind not in ("ball", "box"):
        raise ConfigError("region_kind must be ball or box, got %r"
                          % (cfg.region_kind,))
    # stream keys hold the seed in 64 bits; wider seeds would alias
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64), got %d" % cfg.seed)
    if cfg.kind in ("noise-validate", "decay") and cfg.lags == []:
        raise ConfigError("lags is empty; kind %r needs at least one lag"
                          % (cfg.kind,))
    needs_sim = cfg.kind in ("variance-limit", "clt", "fclt", "tightness",
                             "decay")
    if needs_sim:
        if cfg.T <= 0:
            raise ConfigError("T must be positive for kind %r" % (cfg.kind,))
        if not cfg.R_list:
            raise ConfigError("R_list is required for kind %r" % (cfg.kind,))
        if not cfg.record_times:
            raise ConfigError("record_times is empty; kind %r needs at least "
                              "one record time" % (cfg.kind,))
        try:
            _, record_steps = time_grid(cfg.T, cfg.dt, cfg.record_times)
            for reg in cfg.regions:
                reg.cells(cfg.lattice)
            check_margin(cfg.lattice, cfg.regions, cfg.T)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if cfg.kind == "decay":
            try:
                lag_distances(cfg.lag_cells, cfg.lattice)
            except ValueError as exc:
                raise ConfigError(str(exc) + (
                    "" if cfg.lags is not None else "; these are the default "
                    "lags for n and L: set lags or refine the lattice"))
        # G_R(0) = 0, and fclt divides by Var G_R(t) at every record time,
        # clt and variance-limit at the last one
        if (cfg.kind == "fclt" and 0 in record_steps) or (
                cfg.kind in ("clt", "variance-limit")
                and max(record_steps, default=0) == 0):
            raise ConfigError("kind %r needs its record times after t = 0, "
                              "where every G_R is 0" % (cfg.kind,))
    if len(set(cfg.R_list)) < len(cfg.R_list):
        raise ConfigError("R_list repeats a radius: %s"
                          % ", ".join("%g" % R for R in cfg.R_list))
    if cfg.kind == "clt" and len(cfg.R_list) < 3:
        raise ConfigError("clt needs >= 3 R_list values for its scaling fit")
    if cfg.kind == "variance-limit" and len(cfg.R_list) < 2:
        raise ConfigError("variance-limit needs >= 2 R_list values to "
                          "compare their errors")
    if cfg.kind == "fclt" and len(cfg.record_times) < 2:
        raise ConfigError("fclt needs at least two record times")
    if cfg.kind == "tightness":
        times = sorted(cfg.record_times)
        gaps = np.subtract(times[1:], times[:1])  # from the base time
        if len(gaps) < 4:
            raise ConfigError("tightness needs a base time plus >= 4 gap "
                              "times")
        if gaps.max() / gaps.min() < 10.0 - 1e-9:
            raise ConfigError("tightness gaps must span a decade")
        if cfg.p_moment not in (2, 4):
            raise ConfigError("p_moment must be 2 or 4, got %d" % cfg.p_moment)
    if cfg.kind == "lemma31" and not (
            cfg.y_list and all(0 < abs(y) < np.inf for y in cfg.y_list)):
        raise ConfigError("lemma31 needs y_list of nonzero finite values")
    need = MIN_REPLICAS.get(cfg.kind, 1)
    if cfg.kind in ("variance-limit", "fclt") and cfg.eta_exact:
        need = 2 if cfg.kind == "variance-limit" else len(cfg.record_times) + 1
    if cfg.n_replicas < need:
        raise ConfigError("kind %r needs n_replicas >= %d, got %d"
                          % (cfg.kind, need, cfg.n_replicas))


def load_config(path, overrides=None):
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return parse_config(text, overrides)
