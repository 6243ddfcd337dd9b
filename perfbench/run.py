"""End-to-end and per-layer benchmark of the riesz-she CLI.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the package is used from ``src``
without being installed. Each run of a workload launches fresh ``riesz-she``
processes (through ``perfbench/launch.py``) on configs generated from the
seed, times them from outside and checks every output file. A workload is
repeated while another repetition fits in ``--seconds``; each end-to-end
metric is the median over repetitions. With ``--trace 1`` one more
repetition runs with every layer boundary wrapped and the per-layer metrics
come from it. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with output hashes and the environment, goes to ``.perfbench/``.

Workloads (one process per CLI call, the stated ``--workers``):

``d1-ref-clt``       clt on the acceptance reference (d=1, n=512, L=20, 165
                     steps, 7 record times, R=4,8,16) at 200 replicas, 1
                     worker; 512-cell steps, so per-call Python overhead
                     dominates.
``d2-decay-fields``  decay in d=2 (n=128, L=8, 64 steps) with stored fields,
                     150 replicas through a 2-worker pool; 16384-cell steps,
                     so normals and FFTs, field memory and pool transport
                     dominate.
``kinds-sweep``      all eight kinds, one process each, on one small d=1
                     config (n=64, 20 steps, 100 replicas); the import is
                     paid eight times, so set-up dominates.

Replica counts are set so that two or more repetitions fit in a run.
Each process is pinned to as many CPUs as it has workers, and times are
reported at a reference host speed: a fixed calibration kernel runs on each
of those CPUs before and after each process, and the process's times are
scaled by ``CALIBRATION_REF_S`` over the mean kernel time. On a shared host
whose speed swings by tens of per cent within seconds to minutes, and by
different amounts on each CPU, this removes most of the swing that a median
over repetitions cannot; the raw times are kept in the record.
Per-layer counts named ``_computed``, and ``noise.normals_drawn``, are
computed from lattice sizes and call counts, not measured; per-layer times
are as measured, not scaled to the reference speed.

A run fails on a traceback, an exit code other than 0 or 1 (1 is a
statistical FAIL, which these replica counts produce by design), a missing
or unparsable output file, a wrong samples.csv row count, a non-finite
sample, or a failed statistical sanity check.
"""

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")
CALIBRATE = os.path.join(ROOT, "perfbench", "calibrate.py")
WORK = os.path.join(ROOT, ".perfbench")

PROCESS_TIMEOUT_S = 150.0
CPUS = sorted(os.sched_getaffinity(0))
# Median time of ``calibrate.calibration_kernel`` on the 2-vCPU Intel Xeon host the
# benchmark was tuned on (Python 3.11.7, numpy 2.4.6): reported times are
# scaled to that host speed.
CALIBRATION_REF_S = 0.58
SIM_KINDS = ("variance-limit", "clt", "fclt", "tightness", "decay")
ALL_KINDS = ("noise-validate", "variance-limit", "clt", "fclt", "tightness",
             "decay", "lemma31", "constants")

D1_DT = 0.05 / 33
D1_TIMES = [0.1, 0.1 + 4 * D1_DT, 0.1 + 8 * D1_DT, 0.1 + 16 * D1_DT,
            0.15, 0.2, 0.25]


def _times(values):
    return ", ".join("%.17g" % v for v in values)


class Workload:
    """Config text, the CLI calls made on it, and what their outputs owe."""

    def __init__(self, name, config, kinds, workers, shape,
                 known_failures=None):
        self.name = name
        self.config = config          # config text with a %(seed)d slot
        self.kinds = kinds            # one CLI call per kind and repetition
        self.workers = workers        # --workers of every call
        self.shape = shape            # (n_replicas, n_R, n_times)
        # kind -> defect, for crashes the seed commit is known to have; they
        # are counted as failures, and only a failure not listed here makes
        # the run incorrect.
        self.known_failures = known_failures or {}

    def expected_rows(self, kind):
        n_rep, n_r, n_t = self.shape
        return n_rep * n_r * n_t if kind in SIM_KINDS else 0


WORKLOADS = {w.name: w for w in [
    Workload(
        "d1-ref-clt",
        """kind = clt
d = 1
beta = 0.5
T = 0.25
dt = %(dt).17g
record_times = %(times)s
R_list = 4, 8, 16
n_replicas = 200
seed = %%(seed)d

[lattice]
n = 512
L = 20.0
""" % {"dt": D1_DT, "times": _times(D1_TIMES)},
        kinds=["clt"], workers=1, shape=(200, 3, len(D1_TIMES))),
    Workload(
        "d2-decay-fields",
        """kind = decay
d = 2
beta = 0.5
T = 0.25
record_times = 0.25
R_list = 1, 2, 4
n_replicas = 150
seed = %(seed)d
store_fields = true

[lattice]
n = 128
L = 8.0
""",
        kinds=["decay"], workers=2, shape=(150, 3, 1)),
    Workload(
        "kinds-sweep",
        """kind = clt
d = 1
beta = 0.5
T = 0.04
dt = 0.002
record_times = 0.002, 0.004, 0.008, 0.016, 0.04
R_list = 0.5, 1, 2
n_replicas = 100
seed = %(seed)d
lags = 2, 4, 8
y_list = 0.5, 1

[lattice]
n = 64
L = 4.0
""",
        kinds=ALL_KINDS, workers=1, shape=(100, 3, 5),
        known_failures={
            "variance-limit": "AttributeError: np.trapz is gone in numpy 2.4 "
                              "(observables.eta_sq_integral)",
            "fclt": "AttributeError: np.trapz is gone in numpy 2.4 "
                    "(observables.eta_sq_integral)",
            "tightness": "TypeError: increment_moment_fit stores np.bool_ "
                         "in passed, which json.dump rejects under --out",
        }),
]}


# --- host speed --------------------------------------------------------------

def cpus_for(workers):
    """The CPUs a process with this many workers is pinned to."""
    return CPUS[-workers:]


class Calibrators:
    """One ``calibrate.py`` process per CPU, each pinned to its CPU, kept
    for the whole run and stopped by ``close``."""

    def __init__(self, cpus):
        self.procs = {}
        try:
            for cpu in cpus:
                self.procs[cpu] = subprocess.Popen(
                    [sys.executable, CALIBRATE, str(cpu)], cwd=ROOT,
                    env=child_env(), stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True)
        except BaseException:
            self.close()
            raise

    def measure(self, cpus):
        """Mean seconds of the kernel run at once on each of ``cpus``."""
        for cpu in cpus:
            self.procs[cpu].stdin.write("\n")
            self.procs[cpu].stdin.flush()
        return statistics.mean(float(self.procs[cpu].stdout.readline())
                               for cpu in cpus)

    def close(self):
        for proc in self.procs.values():
            try:
                proc.stdin.close()   # end of input: the process exits
            except OSError:
                pass
        for proc in self.procs.values():
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


# --- one process -------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.update({"PYTHONPATH": SRC, "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "PYTHONHASHSEED": "0"})
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def become_subreaper():
    """Have descendants orphaned by a CLI process (Linux) reparented here
    rather than to init, so ``_end_group`` can wait for them too."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _end_group(pid):
    """Kill whatever is left of the session ``pid`` led and reap it."""
    _kill_group(pid)
    while True:
        try:
            os.waitpid(-pid, 0)
        except ChildProcessError:
            return


def run_process(kind, workers, cfg_path, out_dir, probe_path, mode):
    """Launch one CLI call and wait for it; wall time and peak RSS come from
    this side, set-up and replica marks from the probe file."""
    cmd = [sys.executable, LAUNCH, probe_path, mode, kind,
           "--config", cfg_path, "--out", out_dir, "--workers", str(workers)]
    err_path = probe_path + ".stderr"
    with open(probe_path + ".stdout", "w") as so, open(err_path, "w") as se:
        t_launch = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=so,
                                stderr=se, start_new_session=True)
        # long before the CLI forks its pool workers, which inherit it
        os.sched_setaffinity(proc.pid, cpus_for(workers))
        timer = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            # Wait without reaping, so the session id stays taken while
            # anything the process left behind is killed.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.monotonic() - t_launch
            _kill_group(proc.pid)
            # wait4 reports the peak RSS of the process and of every child it
            # reaped, so pool workers are included.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            _end_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as fh:
        stderr = fh.read()
    try:
        with open(probe_path) as fh:
            probe = json.load(fh)
    except (OSError, ValueError):
        probe = None
    return {"kind": kind, "workers": workers, "mode": mode,
            "exit_code": proc.returncode, "wall_s": wall,
            "t_launch": t_launch, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": stderr, "probe": probe}


# --- output checks -----------------------------------------------------------

# Statistical sanity checks hold for any correct random-stream layout: each
# allows five sampling standard errors, or a tolerance far wider than the
# seed-to-seed spread. The reports' own pass flags are not used, because at
# these replica counts they FAIL on some seeds by design.

def _reports(payload, metric):
    rows = [r for r in payload["reports"] if r["metric"] == metric]
    if not rows:
        raise ValueError("no %s report" % metric)
    return rows


def _sane_clt(payload):
    """sigma_scaling_slope within 5 standard errors of d - beta/2. Each log
    sd(G_R) over N replicas has standard error 1/sqrt(2(N-1)), so the slope
    over the R range has about 1/(sqrt(N-1) ln(R_max/R_min)); the report's
    own 0.05 tolerance is narrower than that at 400 replicas."""
    slope, = _reports(payload, "sigma_scaling_slope")
    radii = [float(dict(kv.split("=") for kv in r["params"].split(";"))["R"])
             for r in _reports(payload, "ks_distance")]
    se = 1.0 / (math.sqrt(payload["n_replicas"] - 1)
                * math.log(max(radii) / min(radii)))
    if not abs(slope["estimate"] - slope["target"]) <= 5 * se:
        return "sigma_scaling_slope %.4g is over 5 se (%.3g) from %.4g" % (
            slope["estimate"], se, slope["target"])
    return None


def _sane_noise(payload):
    """Every lag covariance ratio within 5 of its standard errors of 1."""
    for r in _reports(payload, "noise_covariance_ratio"):
        if not abs(r["estimate"] - r["target"]) <= 5 * r["stderr"]:
            return "noise_covariance_ratio %.4g at %s is over 5 se from 1" % (
                r["estimate"], r["params"])
    return None


def _sane_decay(payload):
    """Correlation envelope ratio within its own tolerance (5; seeds give
    1.05 to 1.25)."""
    r, = _reports(payload, "correlation_decay_envelope")
    if not r["estimate"] <= r["tolerance"]:
        return "correlation_decay_envelope %.4g over %.4g" % (
            r["estimate"], r["tolerance"])
    return None


SANITY = {"clt": _sane_clt, "noise-validate": _sane_noise,
          "decay": _sane_decay}


def _finite_floats(values):
    try:
        return all(math.isfinite(float(v)) for v in values)
    except ValueError:
        return False


def check_outputs(out_dir, expected_rows, sanity=None):
    """(failure reason or None, {file name: sha256}) for one output dir."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
            manifest = json.loads(fh.read())
        names = list(manifest["files"]) + ["manifest.json"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return "manifest.json unreadable: %s" % (exc,), {}
    hashes, parsed = {}, {}
    for name in names:
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
        except OSError:
            return "%s listed in manifest but missing" % name, hashes
        hashes[name] = hashlib.sha256(data).hexdigest()
        try:
            text = data.decode("utf-8")
            parsed[name] = (json.loads(text) if name.endswith(".json")
                            else list(csv.reader(io.StringIO(text))))
        except (UnicodeDecodeError, ValueError, csv.Error) as exc:
            return "%s does not parse: %s" % (name, exc), hashes
    for needed in ("samples.csv", "reports.json"):
        if needed not in parsed:
            return "manifest does not list %s" % needed, hashes
    rows = parsed["samples.csv"]
    if not rows or rows[0] != ["replica_id", "R", "t", "G_R"]:
        return "samples.csv header is wrong", hashes
    if len(rows) - 1 != expected_rows:
        return ("samples.csv has %d rows, expected %d"
                % (len(rows) - 1, expected_rows)), hashes
    if not all(len(r) == 4 and _finite_floats(r[1:]) for r in rows[1:]):
        return "samples.csv has a malformed or non-finite value", hashes
    if sanity is not None:
        try:
            reason = sanity(parsed["reports.json"])
        except (KeyError, TypeError, ValueError) as exc:
            reason = "reports.json lacks what the check reads: %r" % (exc,)
        if reason:
            return reason, hashes
    return None, hashes


def judge(rec, out_dir, workload):
    """Failure reason for one process record, or None; stores hashes."""
    rec["hashes"] = {}
    probe = rec["probe"]
    if (probe is not None and probe.get("traceback")) or \
            "Traceback (most recent call last)" in rec["stderr"]:
        lines = [ln for ln in rec["stderr"].strip().splitlines() if ln]
        return "traceback: %s" % (lines[-1] if lines else "?")
    if rec["exit_code"] not in (0, 1):
        return "exit code %d: %s" % (rec["exit_code"], rec["stderr"][-300:])
    if probe is None:
        return "no probe record"
    reason, rec["hashes"] = check_outputs(
        out_dir, workload.expected_rows(rec["kind"]), SANITY.get(rec["kind"]))
    return reason


# --- one repetition of a workload --------------------------------------------

def run_repetition(workload, seed, index, mode, calibrators):
    rep_dir = os.path.join(WORK, "%s-%d" % (workload.name, index))
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    cfg_path = os.path.join(rep_dir, "config.txt")
    with open(cfg_path, "w") as fh:
        fh.write(workload.config % {"seed": seed})
    cpus = cpus_for(workload.workers)
    calib = calibrators.measure(cpus)
    records = []
    for kind in workload.kinds:
        out_dir = os.path.join(rep_dir, kind)
        rec = run_process(kind, workload.workers, cfg_path, out_dir,
                          os.path.join(rep_dir, kind + ".probe"), mode)
        rec["calib_s"] = [calib, calibrators.measure(cpus)]
        calib = rec["calib_s"][1]
        rec["failure"] = judge(rec, out_dir, workload)
        rec["bytes_written"] = sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in (os.listdir(out_dir) if os.path.isdir(out_dir) else []))
        if mode == "traced":
            rec["worker_probes"] = _worker_probes(rep_dir, kind)
        records.append(rec)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return records


def _worker_probes(rep_dir, kind):
    prefix = kind + ".probe.w"
    out = []
    for name in sorted(os.listdir(rep_dir)):
        if name.startswith(prefix):
            with open(os.path.join(rep_dir, name)) as fh:
                out.append(json.load(fh))
    return out


def _setup_s(rec):
    probe = rec["probe"]
    if probe is None or not probe["marks"]["setup_end"]:
        return None
    return probe["marks"]["setup_end"] - rec["t_launch"]


def _speed(rec):
    """Factor from this process's raw times to times at the reference host
    speed, from the calibrations just before and after it."""
    return CALIBRATION_REF_S / statistics.mean(rec["calib_s"])


def repetition_metrics(records):
    """End-to-end values of one repetition (sums and maxima over its
    processes, and the median of their replica-step rates), times at the
    reference host speed."""
    wall = setup = 0.0
    rates = []
    for r in records:
        speed = _speed(r)
        wall += r["wall_s"] * speed
        setup += (_setup_s(r) or 0.0) * speed
        spans = (r["probe"] or {}).get("replicas", [])
        busy = sum(end - start for start, end, _ in spans) * speed
        if busy > 0:
            rates.append(sum(n for _, _, n in spans) / busy)
    return {
        "wall_s": wall,
        "setup_s": setup,
        # The simulating kinds of kinds-sweep step the same lattice, so
        # their median rate is not thrown by one process's short span
        # falling in a slow spell of the host.
        "replica_steps_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "ok_ratio": sum(not r["failure"] for r in records) / len(records),
        # kept in the record, not reported: what the scaling started from
        "raw_wall_s": sum(r["wall_s"] for r in records),
        "host_speed": statistics.mean(_speed(r) for r in records),
    }


# --- per-layer metrics from the traced repetition ----------------------------

PER_LAYER_UNITS = {
    "streams.stream_for.us_per_call": "us",
    "noise.sample_slice.us_per_call": "us",
    "engine.step.us_per_call": "us",
    "engine.simulate.self_s": "s",
    "noise.sample_slice.ns_per_cell": "ns",
    "engine.step.ns_per_cell": "ns",
    "noise.normals_drawn": "count",
    "engine.fft_gflop_computed": "GFLOP",
    "runner.run_replicas.s": "s",
    "runner.pool_overhead_s": "s",
    "runner.fields_bytes_computed": "B",
    "stats.correlation_decay_check.s": "s",
    "runner.post_s": "s",
    "cli.import_s": "s",
    "config.load_config.s": "s",
    "noise.build_embedding.s": "s",
    "engine.mean_field.s": "s",
    "observables.region_average.calls": "count",
    "observables.region_average.us_per_call": "us",
    "stats.busy_s": "s",
    "runner.emit_results.s": "s",
    "runner.bytes_written": "B",
    "trace.overhead_s": "s",
}


def layer_metrics(records, untraced_wall):
    """Per-layer numbers of one traced repetition, summed over processes."""
    layers = {}
    run_replicas_s = pool_overhead = post = fields_bytes = 0.0
    for rec in records:
        probes = [p for p in [rec["probe"]] + rec["worker_probes"] if p]
        for p in probes:
            for name, agg in p["layers"].items():
                tot = layers.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
                for i, v in enumerate(agg):
                    tot[i] += v
        main = rec["probe"]
        if not main or not main["replicas"]:
            continue
        start = main["replicas"][0][0]
        end = main["replicas"][-1][1]
        run_replicas_s += sum(e - s for s, e, _ in main["replicas"])
        per_pid = {}
        for p in probes:
            for s, e, nbytes in p["chunks"]:
                per_pid[p["pid"]] = per_pid.get(p["pid"], 0.0) + (e - s)
                fields_bytes += nbytes
        pool_overhead += (end - start) - max(per_pid.values(), default=0.0)
        post += main["main_end"] - end

    def get(name, i):
        return layers.get(name, [0, 0.0, 0.0, 0, 0.0])[i]

    def per_call(name, scale=1e6):
        calls = get(name, 0)
        return get(name, 1) / calls * scale if calls else 0.0

    def per_cell(name):
        cells = get(name, 3)
        return get(name, 1) / cells * 1e9 if cells else 0.0

    # two real FFTs in sample_slice and two in step, 2.5 N log2 N flop each
    flop = 2 * 2.5 * (get("noise.sample_slice", 4) + get("engine.step", 4))
    traced_wall = sum(r["wall_s"] * _speed(r) for r in records)
    values = {
        "streams.stream_for.us_per_call": per_call("streams.stream_for"),
        "noise.sample_slice.us_per_call": per_call("noise.sample_slice"),
        "engine.step.us_per_call": per_call("engine.step"),
        "engine.simulate.self_s": get("engine.simulate", 2),
        "noise.sample_slice.ns_per_cell": per_cell("noise.sample_slice"),
        "engine.step.ns_per_cell": per_cell("engine.step"),
        "noise.normals_drawn": get("noise.sample_slice", 3),
        "engine.fft_gflop_computed": flop / 1e9,
        "runner.run_replicas.s": run_replicas_s,
        "runner.pool_overhead_s": pool_overhead,
        "runner.fields_bytes_computed": fields_bytes,
        "stats.correlation_decay_check.s":
            get("stats.correlation_decay_check", 1),
        "runner.post_s": post,
        "cli.import_s": sum(r["probe"]["import_s"] for r in records
                            if r["probe"]),
        "config.load_config.s": get("config.load_config", 1),
        "noise.build_embedding.s": get("noise.build_embedding", 1),
        "engine.mean_field.s": get("engine.mean_field", 1),
        "observables.region_average.calls":
            get("observables.region_average", 0),
        "observables.region_average.us_per_call":
            per_call("observables.region_average"),
        "stats.busy_s": sum(agg[1] for name, agg in layers.items()
                            if name.startswith("stats.")),
        "runner.emit_results.s": get("runner.emit_results", 1),
        "runner.bytes_written": sum(r["bytes_written"] for r in records),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    table = {name: {"calls": a[0], "busy_s": a[1], "self_s": a[2]}
             for name, a in sorted(layers.items())}
    return values, table


# --- driver ------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s",
                    "replica_steps_per_s": "1/s", "peak_rss_mb": "MB",
                    "ok_ratio": "ratio"}


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu_model": model}


def warm_up():
    """Import once untimed, so bytecode and the file cache are warm (users
    pay neither on every call); returns the children's numpy version."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import numpy, riesz_she.cli; print(numpy.__version__)"],
        cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S)
    return out.stdout.strip()


def run_workload(workload, seed, seconds, trace, calibrators):
    t0 = time.monotonic()
    reps = []
    while True:
        t_rep = time.monotonic()
        reps.append(run_repetition(workload, seed, len(reps), "timed",
                                   calibrators))
        now = time.monotonic()
        last = now - t_rep   # calibrations included
        reserve = 1.3 * last if trace else 0.0   # room for the traced one
        if now - t0 + last + reserve > seconds:
            break
    per_rep = [repetition_metrics(recs) for recs in reps]
    e2e = {name: statistics.median(m[name] for m in per_rep)
           for name in per_rep[0]}
    traced = run_repetition(workload, seed, len(reps), "traced",
                            calibrators) \
        if trace else None

    all_recs = [r for recs in reps + ([traced] if traced else [])
                for r in recs]
    failures = [(r["kind"], r["failure"]) for r in all_recs if r["failure"]]
    unexpected = [(k, why) for k, why in failures
                  if k not in workload.known_failures]
    hashes = {}
    mismatched = []
    for r in all_recs:
        if r["failure"]:
            continue
        prev = hashes.setdefault(r["kind"], r["hashes"])
        if prev != r["hashes"]:
            mismatched.append(r["kind"])
    result = {
        "workload": workload.name, "seed": seed,
        "repetitions": len(reps), "processes": len(all_recs),
        "correct": not unexpected and not mismatched,
        "attempted": len(all_recs), "failed": len(failures),
        "failed_ratio": len(failures) / len(all_recs),
        "failures": sorted(set("%s: %s" % f for f in failures)),
        "unexpected_failures": ["%s: %s" % f for f in unexpected],
        "hash_mismatches": sorted(set(mismatched)),
        "output_sha256": hashes,
        "per_repetition": per_rep,
        "end_to_end": e2e,
    }
    if traced:
        result["per_layer"], result["layers"] = layer_metrics(
            traced, e2e["wall_s"])
    return result


def report(result, trace):
    name = result["workload"]
    print("[%s] seed %d, %d repetitions, %d processes; python %s, numpy %s, "
          "nproc %s, %s" % (name, result["seed"], result["repetitions"],
                            result["processes"], result["env"]["python"],
                            result["env"]["numpy"], result["env"]["nproc"],
                            result["env"]["cpu_model"]))
    for metric, unit in END_TO_END_UNITS.items():
        vals = [m[metric] for m in result["per_repetition"]]
        print("[%s] %-22s %12.6g %-6s median of %d (min %.6g, max %.6g)"
              % (name, metric, result["end_to_end"][metric], unit, len(vals),
                 min(vals), max(vals)))
    print("[%s] times are at the reference host speed; this host ran at %.3g "
          "of it (unscaled wall_s %.6g s)"
          % (name, result["end_to_end"]["host_speed"],
             result["end_to_end"]["raw_wall_s"]))
    print("[%s] %-22s %12.6g %-6s %d of %d runs failed"
          % (name, "failed_ratio", result["failed_ratio"], "ratio",
             result["failed"], result["attempted"]))
    for line in result["failures"]:
        print("[%s] failure: %s" % (name, line))
    if trace:
        for metric, unit in PER_LAYER_UNITS.items():
            print("[%s] %-40s %14.6g %s"
                  % (name, metric, result["per_layer"][metric], unit))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "riesz_she", "cli.py")):
        print("no riesz_she package under %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    env = environment()
    env["numpy"] = warm_up()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    widest = max(len(cpus_for(WORKLOADS[name].workers)) for name in names)
    # SIGTERM ends the run through the same clean-up as an error does
    signal.signal(signal.SIGTERM, _terminate)
    become_subreaper()
    calibrators = Calibrators(cpus_for(widest))
    try:
        calibrators.measure(cpus_for(widest))   # warm caches
        for name in names:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace), calibrators)
            res["env"] = env
            with open(os.path.join(WORK, "%s-seed%d-trace%d.json"
                                   % (name, args.seed, args.trace)),
                      "w") as fh:
                json.dump(res, fh, indent=1, sort_keys=True)
            report(res, args.trace)
            results.append(res)
    finally:
        calibrators.close()

    key = "per_layer" if args.trace else "end_to_end"
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": res[key][metric],
                                        "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
