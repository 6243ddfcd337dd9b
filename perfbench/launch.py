"""Run one riesz-she CLI call under probes and write what they saw.

    python perfbench/launch.py PROBE_JSON MODE KIND --config PATH [...]

Everything after MODE is passed to ``riesz_she.cli.main`` unchanged, so the
process does exactly what ``riesz-she KIND ...`` does. MODE is

``timed``   marks only: the end of set-up and the ``run_replicas`` span.
            About ten wrapped calls per process, so timings are those of an
            untraced run.
``traced``  also wraps every layer boundary (streams, noise, engine,
            observables, stats, runner, config, cli) where the caller looks
            the name up, and aggregates calls, busy and self time per layer.

All marks use ``time.monotonic``, which is one clock for every process on
the machine, so the parent can subtract its own launch time. Pool workers
are forked from this process, inherit the wrappers, and write their own
probe file each time a chunk of replicas ends, because they leave through
``os._exit`` and never run ``atexit``.
"""

import functools
import json
import math
import os
import sys
import time
import traceback

_CLOCK = time.monotonic

# (module where the name is looked up, attribute) for traced mode. The same
# function reached through two modules is aggregated under one layer name.
_TRACED = [
    ("riesz_she.cli", "load_config"),
    ("riesz_she.cli", "run_experiment"),
    ("riesz_she.cli", "emit_results"),
    ("riesz_she.engine", "stream_for"),
    ("riesz_she.engine", "sample_slice"),
    ("riesz_she.engine", "step"),
    ("riesz_she.observables", "region_average"),
    ("riesz_she.runner", "simulate"),
    ("riesz_she.runner", "build_embedding"),
    ("riesz_she.runner", "mean_field"),
    ("riesz_she.runner", "collect_samples"),
    ("riesz_she.runner", "stream_for"),
    ("riesz_she.runner", "sample_slice"),
    ("riesz_she.runner", "covariance_diagnostic"),
    ("riesz_she.runner", "k_beta"),
    ("riesz_she.runner", "estimate_eta"),
    ("riesz_she.runner", "constants_rows"),
    ("riesz_she.runner", "standardize"),
    ("riesz_she.runner", "ks_distance"),
    ("riesz_she.runner", "scaling_fit"),
    ("riesz_she.runner", "rate_fit"),
    ("riesz_she.runner", "functional_cov_check"),
    ("riesz_she.runner", "increment_moment_fit"),
    ("riesz_she.runner", "increment_r_scaling"),
    ("riesz_she.runner", "correlation_decay_check"),
    ("riesz_she.runner", "lemma31_check"),
]


def _cells_of_slice(args):
    return args[0].lattice.n_cells


def _cells_of_step(args):
    return args[0].field.lattice.n_cells


_CELLS = {"noise.sample_slice": _cells_of_slice, "engine.step": _cells_of_step}


def layer_name(fn):
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


class Probe:
    """Marks and per-layer aggregates of one process."""

    def __init__(self, out_path, traced):
        self.out_path = out_path
        self.traced = traced
        self.pid = os.getpid()
        self.marks = {"setup_end": 0.0}
        # [start, end, replica_steps] per run_replicas call
        self.replicas = []
        self.chunks = []     # [start, end, fields_bytes] per replica chunk
        # name -> [calls, busy_s, self_s, cells, sum of cells*log2(cells)]
        self.layers = {}
        self._open = []      # child time accumulated under each open span
        self._flushes = 0

    # -- wrappers -------------------------------------------------------------

    def _mark_setup(self):
        self.marks["setup_end"] = max(self.marks["setup_end"], _CLOCK())

    def _setup_mark(self, fn, at_entry):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if at_entry:
                self._mark_setup()
                return fn(*args, **kwargs)
            out = fn(*args, **kwargs)
            self._mark_setup()
            return out
        return wrapper

    def _run_replicas(self, fn):
        @functools.wraps(fn)
        def wrapper(cfg, *args, **kwargs):
            t0 = _CLOCK()
            out = fn(cfg, *args, **kwargs)
            steps = cfg.n_replicas * int(round(cfg.T / cfg.dt))
            self.replicas.append([t0, _CLOCK(), steps])
            return out
        return wrapper

    def _run_chunk(self, fn):
        @functools.wraps(fn)
        def wrapper(chunk_args):
            in_worker = os.getpid() != self.pid
            if in_worker:
                self._reset()   # drop what the fork copied from the parent
            t0 = _CLOCK()
            trajs = fn(chunk_args)
            nbytes = sum(f.values.nbytes for tr in trajs
                         for f in tr.fields_at_times.values())
            self.chunks.append([t0, _CLOCK(), nbytes])
            if in_worker and self.traced:
                self._flush_worker()
            return trajs
        return wrapper

    def _layer(self, fn):
        name = layer_name(fn)
        agg = self.layers.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
        cells = _CELLS.get(name)
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += busy
                agg[0] += 1
                agg[1] += busy
                agg[2] += busy - child
                if cells is not None:
                    n = cells(args)
                    agg[3] += n
                    agg[4] += n * math.log2(n)
        return wrapper

    def install(self):
        import importlib

        import riesz_she.cli as cli
        import riesz_she.runner as runner

        if self.traced:
            for modname, attr in _TRACED:
                mod = importlib.import_module(modname)
                setattr(mod, attr, self._layer(getattr(mod, attr)))
        # Set-up ends when the last of these returns before stepping begins:
        # the embedding, the mean fields, or (kinds without either) the entry
        # into the experiment.
        cli.run_experiment = self._setup_mark(cli.run_experiment, True)
        runner.build_embedding = self._setup_mark(runner.build_embedding,
                                                  False)
        runner.mean_field = self._setup_mark(runner.mean_field, False)
        runner.run_replicas = self._run_replicas(runner.run_replicas)
        runner._run_chunk = self._run_chunk(runner._run_chunk)

    # -- output ---------------------------------------------------------------

    def _reset(self):
        self.chunks = []
        self.replicas = []
        for agg in self.layers.values():
            agg[:] = [0, 0.0, 0.0, 0, 0.0]

    def _payload(self):
        return {"pid": os.getpid(), "marks": self.marks,
                "replicas": self.replicas, "chunks": self.chunks,
                "layers": self.layers}

    def _flush_worker(self):
        self._flushes += 1
        path = "%s.w%d.%d" % (self.out_path, os.getpid(), self._flushes)
        with open(path, "w") as fh:
            json.dump(self._payload(), fh)
        self._reset()

    def write(self, **extra):
        payload = self._payload()
        payload.update(extra)
        with open(self.out_path, "w") as fh:
            json.dump(payload, fh)


def main():
    out_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("timed", "traced"):
        raise SystemExit("mode must be timed or traced, got %r" % (mode,))
    t0 = _CLOCK()
    import riesz_she.cli as cli
    import_s = _CLOCK() - t0
    probe = Probe(out_path, traced=(mode == "traced"))
    probe.install()
    crashed = False
    try:
        code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        crashed = True
        code = 1
    probe.write(import_s=import_s, main_end=_CLOCK(), traceback=crashed,
                exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
