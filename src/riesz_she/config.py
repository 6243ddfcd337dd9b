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
                     NonlinearitySpec)
from .noise import Lattice, RieszSpec
from .observables import Region
from .runner import check_config


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
    """ExperimentConfig from config text, checked by runner.check_config.
    overrides ({key: text}) replace top-level keys before any value is
    converted or checked. Every ValueError becomes a ConfigError here."""
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
        check_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg


def load_config(path, overrides=None):
    """parse_config of a UTF-8 file; a leading byte-order mark is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return parse_config(text, overrides)
