"""Experiment configuration: flat key = value text with [section] headers.

Top-level keys describe the experiment; [lattice], [sigma] and [init]
sections describe the discretization, the nonlinearity and the initial
condition. Lists are comma separated. Defaults: dt = h^2/4 snapped down
to divide T (a time resolution, not a stability bound: the exponential-Euler
step applies the heat flow exactly), record_times = [T], ball regions at
the origin.
"""

import hashlib

import numpy as np

from .engine import (INIT_KINDS, SIGMA_KINDS, InitialCondition,
                     NonlinearitySpec, time_grid)
from .noise import QUADRATURE_MAX_D, Lattice, RieszSpec
from .observables import Region, check_margin
from .runner import KINDS
from .stats import lag_distances


class ConfigError(Exception):
    pass


def _parse_sections(text):
    """{section: {key: text}} for every section of KEYS. A key or a section
    header given twice is an error that names both lines."""
    sections = {name: {} for name in KEYS}
    first = {}  # (section, key) -> line number; key None for a header
    current = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current, key = line[1:-1].strip(), None
            if not current or current not in KEYS:
                raise ConfigError("line %d: unknown section [%s] (choose "
                                  "from %s)" % (lineno, current, ", ".join(
                                      "[%s]" % k for k in KEYS if k)))
            what = "section [%s]" % current
        else:
            if "=" not in line:
                raise ConfigError("line %d: expected key = value, got %r"
                                  % (lineno, raw.strip()))
            key, val = (v.strip() for v in line.split("=", 1))
            what = "key %r in %s" % (
                key, "[%s]" % current if current else "the top level")
            if key not in KEYS[current]:
                raise ConfigError("line %d: unknown %s" % (lineno, what))
            sections[current][key] = val
        if (current, key) in first:
            raise ConfigError("line %d: repeated %s (first on line %d)"
                              % (lineno, what, first[current, key]))
        first[current, key] = lineno
    return sections


def _finite(s):
    v = float(s)
    if not np.isfinite(v):
        raise ValueError("not a finite number")
    return v


def _float_list(s):
    return [float(v) for v in s.split(",") if v.strip() != ""]


def _int_list(s):
    return [int(v) for v in s.split(",") if v.strip() != ""]


_REQUIRED = object()

# Every key parse_config reads, per section ("" is the top level), with its
# converter and default, in canonical_text order; any other key is a config
# error. A default is the text the key reads as when it is not given; None
# means unset, to be worked out in parse_config. store_fields is retired and
# ignored.
KEYS = {"": {"kind": (str, _REQUIRED), "d": (int, _REQUIRED),
             "beta": (float, _REQUIRED), "T": (_finite, "0"),
             "dt": (_finite, None), "record_times": (_float_list, None),
             "R_list": (_float_list, ""), "region_kind": (str, "ball"),
             "n_replicas": (int, "100"), "seed": (int, "0"),
             "p_moment": (int, "2"), "lags": (_int_list, None),
             "y_list": (_float_list, None), "store_fields": (str, None)},
        "lattice": {"n": (int, _REQUIRED), "L": (_finite, _REQUIRED)},
        "sigma": {"kind": (str, "linear"), "a": (_finite, "1"),
                  "b": (_finite, "0"), "c": (_finite, "0")},
        "init": {"kind": (str, "constant"), "value": (_finite, "1"),
                 "offset": (_finite, None), "amplitude": (_finite, None),
                 "cycles": (int, "1")}}


def _read(given, section):
    """{key: value} for every key of KEYS[section], from its text in given
    or its default, through its converter."""
    values = {}
    for key, (conv, default) in KEYS[section].items():
        text = given.get(key, default)
        if text is _REQUIRED:
            raise ConfigError("missing required key %r" % (key,))
        try:
            values[key] = None if text is None else conv(text)
        except Exception as exc:
            raise ConfigError("key %r: cannot parse %r (%s)"
                              % (key, text, exc))
    return values


def _text(conv, value):
    """value written the way conv reads it back."""
    fmt = {int: "%d", _int_list: "%d", str: "%s"}.get(conv, "%.17g")
    if isinstance(value, list):
        return ", ".join(fmt % v for v in value)
    return fmt % value


class ExperimentConfig:
    def __init__(self, spec, lattice, sigma, init, **top):
        """top: each value of KEYS[""] but d, beta and store_fields."""
        self.spec, self.lattice, self.sigma, self.init = (
            spec, lattice, sigma, init)
        vars(self).update(top)

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
        """The sections of KEYS, each key in its order, without unset keys
        (None), the retired store_fields and the sigma and init keys that
        their kind does not read."""
        values = {"": {**vars(self), "d": self.spec.d, "beta": self.spec.beta},
                  "lattice": vars(self.lattice), "sigma": vars(self.sigma),
                  "init": vars(self.init)}
        reads = {"sigma": ("kind",) + SIGMA_KINDS[self.sigma.kind],
                 "init": ("kind",) + INIT_KINDS[self.init.kind]}
        blocks = []
        for section, keys in KEYS.items():
            lines = ["[%s]" % section] if section else []
            lines += ["%s = %s" % (key, _text(conv, values[section][key]))
                      for key, (conv, _) in keys.items()
                      if values[section].get(key) is not None
                      and key in reads.get(section, keys)]
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def parse_config(text, overrides=None):
    """ExperimentConfig from config text. overrides ({key: text}) replace
    top-level keys before any value is converted or checked."""
    sections = _parse_sections(text)
    top = _read({**sections[""], **(overrides or {})}, "")
    del top["store_fields"]
    start = _read(sections["init"], "init")
    try:
        spec = RieszSpec(d=top.pop("d"), beta=top.pop("beta"))
        lattice = Lattice(d=spec.d, **_read(sections["lattice"], "lattice"))
        sigma = NonlinearitySpec(**_read(sections["sigma"], "sigma"))
        if start["kind"] not in INIT_KINDS:
            raise ConfigError("unknown init kind %r (%s)" % (
                start["kind"], " or ".join(INIT_KINDS)))
        reads = INIT_KINDS[start["kind"]]
        for key in reads:
            if start[key] is None:
                raise ConfigError("missing required key %r" % (key,))
        init = InitialCondition(start["kind"],
                                **{key: start[key] for key in reads})
    except ValueError as exc:
        raise ConfigError(str(exc))

    T = top["T"]
    if top["dt"] is None:
        top["dt"] = lattice.h ** 2 / 4.0
        if T > 0:
            # snap the default down so T is a whole number of steps
            top["dt"] = T / int(np.ceil(T / top["dt"] - 1e-9))
    if top["record_times"] is None:
        top["record_times"] = [T] if T > 0 else []
    cfg = ExperimentConfig(spec=spec, lattice=lattice, sigma=sigma,
                           init=init, **top)
    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.kind not in KINDS:
        raise ConfigError("unknown experiment kind %r (choose from %s)"
                          % (cfg.kind, ", ".join(KINDS)))
    _, steps, min_radii, need = KINDS[cfg.kind]
    if cfg.T < 0:
        raise ConfigError("T must be nonnegative, got %g" % cfg.T)
    if cfg.dt <= 0:
        raise ConfigError("dt must be positive, got %g" % cfg.dt)
    if cfg.region_kind not in ("ball", "box"):
        raise ConfigError("region_kind must be ball or box, got %r"
                          % (cfg.region_kind,))
    # the noise embedding and box constants integrate over the unit cell
    if cfg.spec.d > QUADRATURE_MAX_D and (steps or cfg.kind == "noise-validate"
            or (cfg.kind, cfg.region_kind) == ("constants", "box")):
        raise ConfigError("d must be at most %d for kind %r, whose cell "
                          "quadrature would not fit in memory; got d = %d"
                          % (QUADRATURE_MAX_D, cfg.kind, cfg.spec.d))
    # stream keys hold the seed in 64 bits; wider seeds would alias
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64), got %d" % cfg.seed)
    if cfg.kind in ("noise-validate", "decay") and cfg.lags == []:
        raise ConfigError("lags is empty; kind %r needs at least one lag"
                          % (cfg.kind,))
    if steps:
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
    if len(cfg.R_list) < min_radii:
        raise ConfigError("%s needs >= %d R_list values, got %d"
                          % (cfg.kind, min_radii, len(cfg.R_list)))
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
    # an exact eta is not estimated: variance-limit then needs a sample
    # variance, fclt a full-rank covariance over its record times
    if cfg.kind in ("variance-limit", "fclt") and cfg.eta_exact:
        need = 2 if cfg.kind == "variance-limit" else len(cfg.record_times) + 1
    if cfg.n_replicas < need:
        raise ConfigError("kind %r needs n_replicas >= %d, got %d"
                          % (cfg.kind, need, cfg.n_replicas))


def load_config(path, overrides=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return parse_config(text, overrides)
