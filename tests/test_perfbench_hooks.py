"""The names perfbench/launch.py wraps must exist where it looks them up,
the kinds perfbench/run.py runs must be rows of runner.KINDS, and its
workload configs must parse.

A rename breaks only the benchmark's runs, which no other test makes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from riesz_she import build_embedding, runner
from riesz_she.config import ConfigError, load_config, parse_config

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"
RUN = LAUNCH.with_name("run.py")

CFG = """
kind = variance-limit
d = 1
beta = 0.5
T = 0.02
dt = 0.01
R_list = 0.5, 1
n_replicas = 3
seed = 5

[lattice]
n = 32
L = 4.0
"""


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def launch():
    return _load("perfbench_launch", LAUNCH)


@pytest.fixture(scope="module")
def bench():
    return _load("perfbench_run", RUN)


@pytest.fixture
def timed_probe(launch, tmp_path, monkeypatch):
    # the timed run wraps only cli.run_experiment, runner.run_replicas,
    # runner._run_chunk, runner.build_embedding and runner.mean_field
    from riesz_she import cli
    for mod, attr in ((cli, "run_experiment"), (runner, "run_replicas"),
                      (runner, "_run_chunk"), (runner, "build_embedding"),
                      (runner, "mean_field")):
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undone after
    probe = launch.Probe(str(tmp_path / "probe.json"), traced=False)
    probe.install()
    return probe


def test_benchmark_kinds_are_in_the_kinds_table(bench):
    # a kind renamed or re-flagged in runner.KINDS would otherwise only
    # lower the kinds-sweep workload's ok_ratio
    assert set(bench.ALL_KINDS) <= set(runner.KINDS)
    assert bench.SIM_KINDS == tuple(kind for kind in bench.ALL_KINDS
                                    if runner.KINDS[kind][1])


def test_every_workload_config_parses_under_its_kinds(bench):
    # a key the benchmark writes that the config no longer accepts (a
    # retired key made unknown, say) would fail every process of that
    # workload, which only the benchmark's own runs would show
    for name, workload in bench.WORKLOADS.items():
        for kind in workload.kinds:
            try:
                parse_config(workload.config % {"seed": 42}, {"kind": kind})
            except ConfigError as exc:
                pytest.fail("workload %s, kind %s: %s" % (name, kind, exc))


def test_every_traced_name_resolves(launch):
    for modname, attr in launch._TRACED:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), "%s.%s is gone" % (modname, attr)


def test_chunk_and_region_hooks_see_the_run(launch, tmp_path, monkeypatch):
    # the chunk wrapper reads fields_at_times off every returned block, the
    # region sums reach observables.region_average on the module, and the
    # traced layers' cell counters read the arguments of step and
    # sample_slice
    from riesz_she import engine, observables
    probe = launch.Probe(str(tmp_path / "probe.json"), traced=True)
    monkeypatch.setattr(runner, "_run_chunk",
                        probe._run_chunk(runner._run_chunk))
    monkeypatch.setattr(observables, "region_average",
                        probe._layer(observables.region_average))
    for attr in ("step", "sample_slice"):
        monkeypatch.setattr(engine, attr, probe._layer(getattr(engine, attr)))
    cfg = parse_config(CFG)
    blocks = runner.run_replicas(cfg, build_embedding(cfg.lattice, cfg.spec))
    assert all(blk.fields_at_times == {} for blk in blocks)
    assert [c[2] for c in probe.chunks] == [0]
    # one call per region and record time for the one block
    assert probe.layers["observables.region_average"][0] == 2
    assert probe.layers["engine.step"][3] > 0
    assert probe.layers["noise.sample_slice"][3] > 0


def test_timed_probe_sees_the_run(timed_probe, tmp_path):
    from riesz_she import cli
    probe = timed_probe
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(CFG)
    assert cli.main(["variance-limit", "--config", str(cfgfile)]) in (0, 1)
    # 3 replicas of T / dt = 2 steps
    assert [span[2] for span in probe.replicas] == [6]
    assert probe.marks["setup_end"] > 0
    assert [c[2] for c in probe.chunks] == [0]
    assert probe.layers == {}


@pytest.mark.parametrize("kind", list(runner.KINDS))
def test_timed_probe_sees_every_kind_of_the_sweep(kind, bench, timed_probe,
                                                  tmp_path):
    # run_experiment steps the stepping kinds through the names the probe
    # wraps, so every kind of the kinds-sweep workload marks its set-up and
    # each stepping kind one replica span of all its replica-steps
    from riesz_she import cli
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(bench.WORKLOADS["kinds-sweep"].config % {"seed": 42})
    assert cli.main([kind, "--config", str(cfgfile)]) in (0, 1)
    assert timed_probe.marks["setup_end"] > 0
    cfg = load_config(str(cfgfile))
    steps = cfg.n_replicas * int(round(cfg.T / cfg.dt))
    assert [span[2] for span in timed_probe.replicas] == (
        [steps] if kind in bench.SIM_KINDS else [])
