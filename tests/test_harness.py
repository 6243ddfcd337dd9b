import json
import re

import numpy as np
import pytest

from riesz_she import (DegenerateSigmaError, InstabilityError,
                       __version__, build_embedding, simulate)
from riesz_she.cli import build_parser, main as cli_main
from riesz_she.config import (KEYS, ConfigError, load_config,
                               parse_config)
from riesz_she.observables import estimate_eta
from riesz_she.runner import (EXIT_CONFIG, EXIT_DEGENERATE,
                              EXIT_INSTABILITY, EXIT_PASS, EXIT_STAT_FAIL,
                              KINDS, ResultSet, emit_results, lag_cells,
                              run_experiment)
from riesz_she.stats import StatsReport, correlation_decay_check

MINIMAL = """
kind = clt
d = 1
beta = 0.5
T = 0.04
dt = 0.01
R_list = 0.5, 1, 2
n_replicas = 200
seed = 7

[lattice]
n = 32
L = 4.0
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.kind == "clt"
    assert cfg.lattice.h == 0.25
    assert cfg.record_times == [0.04]  # defaults to [T]
    assert cfg.sigma.kind == "linear"  # default sigma
    assert cfg.init.kind == "constant" and cfg.init.value == 1.0


def test_default_dt_snaps_to_divide_T():
    text = MINIMAL.replace("dt = 0.01\n", "").replace("L = 4.0", "L = 5.0") \
                  .replace("T = 0.04", "T = 0.25") \
                  .replace("n = 32", "n = 64")
    # h = 0.15625, h^2/4 = 0.0061..., 0.25/dt is not an integer, so the
    # default is snapped down to the nearest exact divisor of T
    cfg = parse_config(text)
    n_steps = cfg.T / cfg.dt
    assert n_steps == pytest.approx(round(n_steps), abs=1e-12)
    assert cfg.dt <= cfg.lattice.h ** 2 / 4.0 + 1e-15


def test_config_rejects_bad_beta():
    with pytest.raises(ConfigError, match="beta"):
        parse_config(MINIMAL.replace("beta = 0.5", "beta = 1.5"))


def test_config_rejects_bad_dimension():
    # the kernel spec checks d before beta, so d = 0 is not reported as a
    # beta bound
    with pytest.raises(ConfigError, match="d must be a positive integer"):
        parse_config(MINIMAL.replace("d = 1", "d = 0"))


def test_config_rejects_margin_violation():
    with pytest.raises(ConfigError, match=r"R_max\+6\*sqrt\(T\)"):
        parse_config(MINIMAL.replace("R_list = 0.5, 1, 2",
                                     "R_list = 0.5, 1, 3"))


def test_config_rejects_off_grid_times():
    with pytest.raises(ConfigError, match="not a multiple"):
        parse_config(MINIMAL.replace("seed = 7",
                                     "seed = 7\nrecord_times = 0.015"))
    with pytest.raises(ConfigError, match="not a multiple"):
        parse_config(MINIMAL.replace("dt = 0.01", "dt = 0.03"))


def test_config_rejects_unknown_kind_and_bad_lines():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config(MINIMAL.replace("kind = clt", "kind = wavelet"))
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(MINIMAL + "what is this line\n")


def test_canonical_text_round_trip():
    cfg = parse_config(MINIMAL)
    cfg2 = parse_config(cfg.canonical_text())
    assert cfg2.config_hash() == cfg.config_hash()
    assert cfg2.dt == cfg.dt and cfg2.R_list == cfg.R_list
    # a cosine start under each sigma kind
    for sigma in ("linear", "affine\na = 0.3\nb = -0.1",
                  "sine-affine\na = 0.3\nb = 0.7\nc = 0.1", "clipped-linear"):
        cfg = parse_config(MINIMAL + "\n[sigma]\nkind = %s\n\n[init]\n"
                           "kind = cosine\noffset = 0.1\namplitude = 0.7\n"
                           "cycles = 3\n" % sigma)
        cfg2 = parse_config(cfg.canonical_text())
        assert cfg2.config_hash() == cfg.config_hash()
        assert vars(cfg2.init) == vars(cfg.init)
        assert vars(cfg2.sigma) == vars(cfg.sigma)


def test_store_fields_line_is_ignored():
    # the runner decides which kinds store fields; an old config that still
    # says store_fields parses to the same experiment
    cfg = parse_config(MINIMAL)
    assert "store_fields" not in cfg.canonical_text()
    old = parse_config(MINIMAL.replace("seed = 7",
                                       "seed = 7\nstore_fields = true"))
    assert old.config_hash() == cfg.config_hash()


@pytest.mark.parametrize("text, match", [
    (MINIMAL.replace("n_replicas = 200", "n_replica = 4000"),
     r"line 8: unknown key 'n_replica' in the top level"),
    (MINIMAL.replace("n = 32", "n = 32\nN = 1024"),
     r"line 13: unknown key 'N' in \[lattice\]"),
    (MINIMAL + "[sigma]\nkind = affine\nalpha = 0.3\n",
     r"line 16: unknown key 'alpha' in \[sigma\]"),
    (MINIMAL + "[init]\nkind = cosine\noffset = 0.1\namplitude = 0.5\n"
     "cycle = 3\n", r"line 18: unknown key 'cycle' in \[init\]"),
    (MINIMAL.replace("[lattice]", "[lattices]"),
     r"line 11: unknown section \[lattices\]"),
    (MINIMAL.replace("seed = 7", "seed = 1\nseed = 2"),
     r"line 10: repeated key 'seed' in the top level \(first on line 9\)"),
    (MINIMAL.replace("n = 32", "n = 8\nn = 16"),
     r"line 13: repeated key 'n' in \[lattice\] \(first on line 12\)"),
    (MINIMAL.replace("n = 32\nL = 4.0", "n = 8\n[sigma]\nkind = affine\n"
                     "[lattice]\nn = 16\nL = 4.0"),
     r"line 15: repeated section \[lattice\] \(first on line 11\)"),
    (MINIMAL + "[sigma]\nkind = affine\n[sigma]\nkind = clipped-linear\n",
     r"line 16: repeated section \[sigma\] \(first on line 14\)"),
    (MINIMAL + "[]\nregion_kind = box\n", r"line 14: unknown section \[\]"),
], ids=["top", "lattice", "sigma", "init", "section", "repeated-top",
        "repeated-lattice", "reopened-lattice", "repeated-section",
        "empty-section"])
def test_unknown_key_or_section_is_a_config_error(text, match, tmp_path,
                                                  capsys):
    # a misspelled key or section would otherwise run with the defaults it
    # meant to set, and a repeated one would silently keep its last value
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text)
    assert cli_main(["clt", "--config", str(cfgfile)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert re.search(match, err)


# a valid value other than the base config's for each key; the base reads
# every key: a sine-affine sigma, and a cosine start except for value
NEW_VALUES = {("", "kind"): "constants", ("", "d"): "2", ("", "beta"): "0.7",
              ("", "T"): "0.08", ("", "dt"): "0.005",
              ("", "record_times"): "0.02, 0.04",
              ("", "R_list"): "0.5, 1, 1.5", ("", "region_kind"): "box",
              ("", "n_replicas"): "300", ("", "seed"): "8",
              ("", "p_moment"): "4", ("", "lags"): "1, 2",
              ("", "y_list"): "0.5", ("lattice", "n"): "64",
              ("lattice", "L"): "5", ("sigma", "kind"): "affine",
              ("sigma", "a"): "0.3", ("sigma", "b"): "0.7",
              ("sigma", "c"): "0.1", ("init", "kind"): "constant",
              ("init", "value"): "2.5", ("init", "offset"): "1.25",
              ("init", "amplitude"): "0.75", ("init", "cycles"): "2"}


def _key_value(cfg, section, key):
    owner = {"": cfg.spec if key in ("d", "beta") else cfg,
             "lattice": cfg.lattice, "sigma": cfg.sigma,
             "init": cfg.init}[section]
    return getattr(owner, key)


@pytest.mark.parametrize("section, key", [
    pytest.param(section, key, id="%s.%s" % (section or "top", key))
    for section in KEYS for key in KEYS[section] if key != "store_fields"])
def test_every_key_reaches_the_hash(section, key):
    # two configs that differ in one key must not share a config_hash
    sections = {"": {"kind": "clt", "d": "1", "beta": "0.5", "T": "0.04",
                     "dt": "0.01", "R_list": "0.5, 1, 2",
                     "n_replicas": "200", "seed": "7"},
                "lattice": {"n": "32", "L": "4.0"},
                "sigma": {"kind": "sine-affine"},
                "init": {"kind": "constant"} if key == "value" else
                {"kind": "cosine", "offset": "0.1", "amplitude": "0.7"}}

    def text():
        return "".join(("[%s]\n" % name if name else "") + "".join(
            "%s = %s\n" % item for item in keys.items())
            for name, keys in sections.items())
    base = parse_config(text())
    sections[section][key] = NEW_VALUES[section, key]
    cfg = parse_config(text())
    assert _key_value(cfg, section, key) != _key_value(base, section, key)
    again = parse_config(cfg.canonical_text())
    assert _key_value(again, section, key) == _key_value(cfg, section, key)
    assert again.config_hash() == cfg.config_hash() != base.config_hash()


# the canonical text and config_hash of three configs, frozen: a change to
# how any key is written changes the hash of every run made before it
EVERY_KEY = MINIMAL.replace("seed = 7", """seed = 7
record_times = 0.02, 0.04
region_kind = box
p_moment = 4
lags = 1, 2
y_list = 0.5
store_fields = true""") + """
[sigma]
kind = sine-affine
a = 0.3
b = 0.7
c = 0.1

[init]
kind = cosine
value = 2.5
offset = 0.1
amplitude = 0.7
cycles = 3
"""
AFFINE_CONSTANT = MINIMAL + """
[sigma]
kind = affine
a = 0.3
b = -0.1

[init]
kind = constant
value = 2.5
"""
PINNED = {
    "minimal": (MINIMAL, """kind = clt
d = 1
beta = 0.5
T = 0.040000000000000001
dt = 0.01
record_times = 0.040000000000000001
R_list = 0.5, 1, 2
region_kind = ball
n_replicas = 200
seed = 7
p_moment = 2

[lattice]
n = 32
L = 4

[sigma]
kind = linear

[init]
kind = constant
value = 1
""", "e26ccd1276904b3b22b4160f37bc742310f6dac8ed78633f51289522cebe6336"),
    "every-key": (EVERY_KEY, """kind = clt
d = 1
beta = 0.5
T = 0.040000000000000001
dt = 0.01
record_times = 0.02, 0.040000000000000001
R_list = 0.5, 1, 2
region_kind = box
n_replicas = 200
seed = 7
p_moment = 4
lags = 1, 2
y_list = 0.5

[lattice]
n = 32
L = 4

[sigma]
kind = sine-affine
a = 0.29999999999999999
b = 0.69999999999999996
c = 0.10000000000000001

[init]
kind = cosine
offset = 0.10000000000000001
amplitude = 0.69999999999999996
cycles = 3
""", "6a30dc9d36a7711bfd1062e16e9a5a2c9bdce5a2bece11616282a19f40490f60"),
    "affine-constant": (AFFINE_CONSTANT, """kind = clt
d = 1
beta = 0.5
T = 0.040000000000000001
dt = 0.01
record_times = 0.040000000000000001
R_list = 0.5, 1, 2
region_kind = ball
n_replicas = 200
seed = 7
p_moment = 2

[lattice]
n = 32
L = 4

[sigma]
kind = affine
a = 0.29999999999999999
b = -0.10000000000000001

[init]
kind = constant
value = 2.5
""", "4688fad8ea82997a26315b851ed090012f4235755035c77a49ecf4361123e40d")}


@pytest.mark.parametrize("name", PINNED)
def test_canonical_text_and_hash_are_pinned(name):
    text, canonical, digest = PINNED[name]
    cfg = parse_config(text)
    assert cfg.canonical_text() == canonical
    assert cfg.config_hash() == digest


@pytest.mark.parametrize("section, kind, key", [
    ("sigma", "linear", "a"), ("sigma", "linear", "b"),
    ("sigma", "linear", "c"), ("sigma", "affine", "c"),
    ("sigma", "clipped-linear", "a"), ("init", "constant", "offset"),
    ("init", "constant", "amplitude"), ("init", "constant", "cycles"),
    ("init", "cosine", "value")])
def test_unread_sigma_and_init_keys_stay_out_of_the_hash(section, kind, key):
    # a sigma or init key that the kind does not read leaves the experiment
    # as it is, so it must leave its config_hash as it is too
    base = MINIMAL + "[%s]\nkind = %s\n" % (section, kind)
    if kind == "cosine":
        base += "offset = 0.1\namplitude = 0.7\n"
    line = "%s = %s\n" % (key, NEW_VALUES[section, key])
    assert parse_config(base + line).config_hash() == \
        parse_config(base).config_hash()



def test_kind_specific_validation():
    with pytest.raises(ConfigError, match="two record times"):
        parse_config(MINIMAL.replace("kind = clt", "kind = fclt"))
    with pytest.raises(ConfigError, match="base time plus"):
        parse_config(MINIMAL.replace("kind = clt", "kind = tightness"))
    with pytest.raises(ConfigError, match="y_list"):
        parse_config("kind = lemma31\nd = 1\nbeta = 0.5\n"
                     "[lattice]\nn = 4\nL = 1.0\n")
    # each would otherwise fail in its statistic after the whole run
    with pytest.raises(ConfigError, match="clt needs >= 3 R_list values"):
        parse_config(MINIMAL.replace("R_list = 0.5, 1, 2", "R_list = 0.5, 1"))
    # a repeated radius: no scaling fit through one R, duplicate report rows
    for kind, r_list in (("clt", "2, 2, 2"), ("clt", "1, 2, 2"),
                         ("tightness", "1, 1")):
        with pytest.raises(ConfigError, match="R_list repeats a radius"):
            parse_config(MINIMAL.replace("kind = clt", "kind = " + kind)
                         .replace("R_list = 0.5, 1, 2", "R_list = " + r_list))
    # variance-limit compares the error at its smallest and largest R
    with pytest.raises(ConfigError, match="variance-limit needs >= 2 R_list"):
        parse_config(MINIMAL.replace("kind = clt", "kind = variance-limit")
                     .replace("R_list = 0.5, 1, 2", "R_list = 1"))
    tight = MINIMAL.replace("kind = clt", "kind = tightness") \
                   .replace("dt = 0.01", "dt = 0.002")
    spanning = "seed = 7\nrecord_times = 0.002, 0.004, 0.008, 0.016, 0.04"
    with pytest.raises(ConfigError, match="p_moment must be 2 or 4, got 3"):
        parse_config(tight.replace("seed = 7", spanning + "\np_moment = 3"))
    # gaps 0.01 .. 0.03 from the base time 0.01 span a factor 3
    with pytest.raises(ConfigError, match="must span a decade"):
        parse_config(tight.replace("seed = 7", "seed = 7\nrecord_times = "
                                   "0.01, 0.02, 0.03, 0.036, 0.04"))
    for p in (2, 4):
        parse_config(tight.replace("seed = 7",
                                   spanning + "\np_moment = %d" % p))
    # an empty lag list would fail in noise-validate's diagnostic after every
    # slice is drawn, and in decay's check after the whole run
    for kind in ("noise-validate", "decay"):
        with pytest.raises(ConfigError, match="lags is empty"):
            parse_config(MINIMAL.replace("kind = clt", "kind = " + kind)
                         .replace("seed = 7", "seed = 7\nlags ="))
    # parse_config refuses an unknown kind, so one is set after parsing
    cfg = parse_config(MINIMAL)
    cfg.kind = "wavelet"
    with pytest.raises(ValueError, match="unknown kind 'wavelet'"):
        run_experiment(cfg)


CONSTANTS_CFG = """
kind = constants
d = 1
beta = 0.5

[lattice]
n = 4
L = 1.0
"""


def test_constants_run():
    rs = run_experiment(parse_config(CONSTANTS_CFG))
    assert rs.all_passed and rs.exit_code == EXIT_PASS
    (row,) = rs.constants
    assert row[4] == pytest.approx(7.54247, abs=1e-5)
    assert row[5:] == (0.0, "closed-form")
    for kind, method in (("ball", "closed-form"), ("box", "quadrature")):
        (row,) = run_experiment(parse_config(CONSTANTS_CFG.replace(
            "d = 1", "d = 2\nregion_kind = " + kind))).constants
        assert row[3:4] + row[5:] == (kind, 0.0, method)


def test_noise_validate_run():
    # the largest lag (distance L) is excluded: its covariance is small and
    # its sampling error exceeds the 10% band at a few hundred slices
    cfg = parse_config(MINIMAL.replace("kind = clt", "kind = noise-validate")
                       .replace("n_replicas = 200", "n_replicas = 400")
                       .replace("seed = 7", "seed = 7\nlags = 0, 1, 2, 4, 8"))
    rs = run_experiment(cfg)
    assert rs.reports and all(r.metric == "noise_covariance_ratio"
                              for r in rs.reports)
    assert rs.all_passed


def test_degenerate_clt_raises():
    text = MINIMAL + "\n[sigma]\nkind = affine\na = 1\nb = -1\n"
    cfg = parse_config(text)
    with pytest.raises(DegenerateSigmaError, match="sigma"):
        run_experiment(cfg)


DEGENERATE_COSINE = """
kind = clt
d = 1
beta = 0.5
%s
R_list = 1, 2, 3
n_replicas = 120
seed = 601

[lattice]
n = 64
L = 8.0

[sigma]
kind = clipped-linear

[init]
kind = cosine
offset = -1
amplitude = 0.5
"""


@pytest.mark.parametrize("kind", ["variance-limit", "clt", "fclt",
                                  "tightness", "decay"])
def test_zero_sigma_at_every_start_cell_is_degenerate(kind, tmp_path, capsys,
                                                      monkeypatch):
    # u0 lies in [-1.5, -0.5], where max(u, 0) is 0: the start is not
    # constant, yet u never leaves its mean and every G_R is 0
    times = ("T = 0.04\ndt = 0.002\nrecord_times = 0.002, 0.004, 0.008, "
             "0.02, 0.04" if kind == "tightness"
             else "T = 0.05\nrecord_times = 0.025, 0.05")
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(DEGENERATE_COSINE % times)

    def no_run(*args, **kwargs):
        raise AssertionError("stepped a degenerate run")
    monkeypatch.setattr("riesz_she.runner.run_replicas", no_run)
    assert cli_main([kind, "--config", str(cfgfile)]) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sigma(u0) = 0 at every cell" in err


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(MINIMAL)
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("beta = 0.5", "beta = 2.5"))
    degen = tmp_path / "degen.cfg"
    degen.write_text(MINIMAL + "\n[sigma]\nkind = affine\na = 1\nb = -1\n")

    assert cli_main(["clt", "--config", str(bad)]) == EXIT_CONFIG
    two_r = tmp_path / "two_r.cfg"
    two_r.write_text(MINIMAL.replace("R_list = 0.5, 1, 2", "R_list = 1, 2"))
    assert cli_main(["clt", "--config", str(two_r)]) == EXIT_CONFIG
    two_r.write_text(MINIMAL.replace("R_list = 0.5, 1, 2", "R_list = 2, 2, 2"))
    assert cli_main(["clt", "--config", str(two_r)]) == EXIT_CONFIG
    assert cli_main(["clt", "--config", str(tmp_path / "absent.cfg")]) \
        == EXIT_CONFIG
    assert cli_main(["clt", "--config", str(degen)]) == EXIT_DEGENERATE

    # usage errors are config errors, not argparse's exit 2; --help is 0
    for argv in (["clt"], ["wavelet", "--config", str(good)],
                 ["clt", "--config", str(good), "--workers", "x"]):
        assert cli_main(argv) == EXIT_CONFIG
    assert cli_main(["--help"]) == 0
    capsys.readouterr()
    # a worker count below 1 is refused before the config is read
    for workers in ("0", "-3"):
        assert cli_main(["constants", "--config", str(tmp_path / "absent.cfg"),
                         "--workers", workers]) == EXIT_CONFIG
        assert "--workers must be at least 1" in capsys.readouterr().err
    # the overrides are parsed as config values, so a bad one names its key
    assert cli_main(["clt", "--config", str(good), "--replicas", "abc"]) \
        == EXIT_CONFIG
    assert "'n_replicas'" in capsys.readouterr().err

    def unstable_run(cfg, workers=1):
        raise InstabilityError("blow-up")
    monkeypatch.setattr("riesz_she.cli.run_experiment", unstable_run)
    assert cli_main(["clt", "--config", str(good)]) == EXIT_INSTABILITY

    # statistical failure propagates as exit 1
    def fake_run(cfg, workers=1):
        rs = ResultSet(config=cfg)
        rs.reports = [StatsReport(metric="m", estimate=9.0, target=0.0,
                                  tolerance=1.0, passed=False)]
        return rs
    monkeypatch.setattr("riesz_she.cli.run_experiment", fake_run)
    assert cli_main(["clt", "--config", str(good)]) == EXIT_STAT_FAIL
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 metrics passed" in out


def test_cli_seed_override_in_manifest(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(CONSTANTS_CFG)
    outdir = tmp_path / "out"
    code = cli_main(["constants", "--config", str(cfgfile),
                     "--out", str(outdir), "--seed", "123"])
    assert code == EXIT_PASS
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["seed"] == 123
    assert "seed = 123" in manifest["config"]
    assert sorted(manifest["files"]) == ["constants.csv", "reports.csv",
                                         "reports.json", "samples.csv"]


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    # --out names a file, so its directory cannot be made
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(CONSTANTS_CFG)
    assert cli_main(["constants", "--config", str(cfgfile),
                     "--out", str(cfgfile)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: cannot write %s" % cfgfile)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_blow_up_exits_3_with_one_line(workers, tmp_path, capsys):
    # sigma = 1000 u overflows by step 110; the overflow is reported once,
    # as the instability of the replica it happened in, and numpy's
    # overflow warnings (errors here) stay silent
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(MINIMAL.replace("T = 0.04", "T = 200")
                       .replace("dt = 0.01", "dt = 1")
                       .replace("R_list = 0.5, 1, 2", "R_list = 8, 16, 32")
                       .replace("n_replicas = 200", "n_replicas = 100")
                       .replace("seed = 7", "seed = 3")
                       .replace("n = 32", "n = 16")
                       .replace("L = 4.0", "L = 128")
                       + "\n[sigma]\nkind = affine\na = 1000\nb = 0\n")
    assert cli_main(["clt", "--config", str(cfgfile),
                     "--workers", workers]) == EXIT_INSTABILITY
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical instability: replica 20: blow-up/"
                          "instability at step 110 (t=110)")


@pytest.mark.parametrize("kind, text, extra", [
    ("clt", MINIMAL.replace("n_replicas = 200", "n_replicas = 50"),
     ["--replicas", "150"]),
    ("clt", MINIMAL.replace("kind = clt", "kind = decay")
     .replace("seed = 7", "seed = 7\nlags = 1"), []),
    ("lemma31", MINIMAL.replace("n_replicas = 200", "n_replicas = 50")
     .replace("seed = 7", "seed = 7\ny_list = 0.5, 1"), []),
], ids=["replicas-override", "file-kind-decay", "file-kind-clt"])
def test_cli_validates_the_run_it_makes(kind, text, extra, tmp_path):
    # the file alone fails validation (too few replicas for its kind, a lag
    # below 2h for decay); the run the command line asks for is valid
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text)
    with pytest.raises(ConfigError):
        load_config(cfgfile)
    outdir = tmp_path / "out"
    code = cli_main([kind, "--config", str(cfgfile), "--out", str(outdir)]
                    + extra)
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"].startswith("kind = %s\n" % kind)
    if extra:
        assert "n_replicas = 150" in manifest["config"]


def test_seed_must_fit_the_stream_key(tmp_path):
    # stream keys mask the seed to 64 bits: -1 would draw what 2**64 - 1
    # draws, and 2**64 what 0 draws
    for seed in (-1, 2 ** 64):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(MINIMAL.replace("seed = 7", "seed = %d" % seed))
    assert parse_config(MINIMAL.replace("seed = 7", "seed = %d"
                                        % (2 ** 64 - 1))).seed == 2 ** 64 - 1
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(CONSTANTS_CFG)
    assert cli_main(["constants", "--config", str(cfgfile),
                     "--seed", "-1"]) == EXIT_CONFIG


@pytest.mark.parametrize("times", ["0.02, 0.04, 0.04",
                                   "0.02, 0.04, 0.0400000001"])
def test_record_times_on_one_step_are_a_config_error(times, tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(MINIMAL.replace("seed = 7",
                                       "seed = 7\nrecord_times = " + times))
    assert cli_main(["fclt", "--config", str(cfgfile)]) == EXIT_CONFIG


@pytest.mark.parametrize("kind, times", [
    ("clt", "-0.002, 0.02, 0.04"),
    ("clt", "0.02, inf"),
    ("fclt", "0, 0.02, 0.04"),
    ("clt", "0"),
    ("variance-limit", "0"),
    ("decay", ""),
])
def test_record_times_before_or_all_at_zero_are_a_config_error(kind, times,
                                                               tmp_path):
    # G_R(0) = 0: fclt divides by its variance at every record time, clt and
    # variance-limit at the last one; decay's reducer reads the last one
    text = MINIMAL.replace("seed = 7", "seed = 7\nrecord_times = " + times)
    with pytest.raises(ConfigError, match="not finite|after t = 0|is empty"):
        parse_config(text.replace("kind = clt", "kind = " + kind))
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text)
    assert cli_main([kind, "--config", str(cfgfile)]) == EXIT_CONFIG


def test_record_time_zero_is_a_base_time():
    parse_config(MINIMAL.replace("seed = 7", "seed = 7\nrecord_times = 0, "
                                 "0.04"))
    parse_config(MINIMAL.replace("kind = clt", "kind = tightness")
                 .replace("dt = 0.01", "dt = 0.002")
                 .replace("seed = 7", "seed = 7\nrecord_times = 0, 0.002, "
                          "0.004, 0.008, 0.02"))


@pytest.mark.parametrize("text, match", [
    pytest.param(MINIMAL.replace("R_list = 0.5, 1, 2", "R_list = 0.1, 1"),
                 r"no cell centers \(ball R=0.1 < \(h/2\)\*sqrt\(d\)=0.125\)",
                 id="0.1, 1"),
    pytest.param(MINIMAL.replace("R_list = 0.5, 1, 2", "R_list = 0.5, nan"),
                 "positive", id="0.5, nan"),
    # h = 2: the nearest centers of the plane lie at (h/2) sqrt(2) > 1.2
    pytest.param(MINIMAL.replace("d = 1", "d = 2")
                 .replace("R_list = 0.5, 1, 2", "R_list = 1.2, 3, 4")
                 .replace("n = 32", "n = 8").replace("L = 4.0", "L = 8.0"),
                 r"\(ball R=1.2 < \(h/2\)\*sqrt\(d\)=1.41421\)",
                 id="d2-ball"),
])
def test_region_without_a_cell_is_a_config_error(text, match, tmp_path):
    # h/2 = 0.125: R = 0.1 holds no cell center, and nan is no radius
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text)
    assert cli_main(["clt", "--config", str(cfgfile)]) == EXIT_CONFIG


@pytest.mark.parametrize("key, line, kind, match", [
    # match None: "key '<key>' ... not a finite number"
    pytest.param("T", "T = inf", "clt", None, id="T-T = inf-clt"),
    pytest.param("L", "L = nan", "clt", None, id="L-L = nan-clt"),
    pytest.param("L", "L = inf", "clt", None, id="L-L = inf-clt"),
    pytest.param("dt", "dt = nan", "noise-validate", None,
                 id="dt-dt = nan-noise-validate"),
    # [sigma] and [init] keys, each inserted as a section of its own
    pytest.param("a", "[sigma]\nkind = affine\na = nan", "clt", None,
                 id="a-nan"),
    pytest.param("b", "[sigma]\nkind = affine\nb = -inf", "clt", None,
                 id="b-inf"),
    pytest.param("c", "[sigma]\nkind = sine-affine\nc = inf", "clt", None,
                 id="c-inf"),
    pytest.param("value", "[init]\nvalue = nan", "clt", None, id="value-nan"),
    pytest.param("offset", "[init]\nkind = cosine\noffset = nan\n"
                 "amplitude = 1", "clt", None, id="offset-nan"),
    pytest.param("amplitude", "[init]\nkind = cosine\noffset = 1\n"
                 "amplitude = inf", "clt", None, id="amplitude-inf"),
    # a required key left out (its line emptied), and values out of range
    pytest.param("d", "", "clt", "missing required key 'd'", id="d-missing"),
    pytest.param("n", "", "clt", "missing required key 'n'", id="n-missing"),
    pytest.param("[init] kind", "[init]\nkind = sphere", "clt",
                 "unknown init kind 'sphere'", id="init-kind-sphere"),
    pytest.param("T", "T = -1", "clt", "T must be nonnegative, got -1",
                 id="T-negative"),
    pytest.param("dt", "dt = 0", "clt", "dt must be positive, got 0",
                 id="dt-zero"),
    pytest.param("region_kind", "region_kind = cube", "clt",
                 "region_kind must be ball or box, got 'cube'",
                 id="region_kind-cube"),
    pytest.param("T", "", "clt", "T must be positive for kind 'clt'",
                 id="T-missing"),
    pytest.param("R_list", "", "clt", "R_list is required for kind 'clt'",
                 id="R_list-missing"),
    pytest.param("record_times", "record_times = 0.02, 0.05", "clt",
                 "record time 0.05 exceeds horizon 0.04",
                 id="record_times-past-T"),
    pytest.param("offset", "[init]\nkind = cosine\namplitude = 1", "clt",
                 "missing required key 'offset'", id="offset-missing"),
    pytest.param("amplitude", "[init]\nkind = cosine\noffset = 1", "clt",
                 "missing required key 'amplitude'", id="amplitude-missing"),
    # two faults at once: the first check that fails is the one reported
    pytest.param("T", "T = -1\nregion_kind = cube", "clt",
                 "T must be nonnegative, got -1", id="T-negative-and-cube"),
    pytest.param("R_list", "lags =", "decay",
                 "lags is empty; kind 'decay' needs at least one lag",
                 id="lags-empty-and-R_list-missing"),
    pytest.param("record_times", "record_times = 0", "fclt",
                 "kind 'fclt' needs its record times after t = 0",
                 id="fclt-one-record-time-at-0"),
])
def test_non_finite_T_L_or_dt_is_a_config_error(key, line, kind, match,
                                                tmp_path, capsys):
    # the line replaces the key's line in MINIMAL, or goes in before its
    # [lattice] section; parse_config gets the kind as the CLI passes it,
    # and each exits 4 with one line that names the key
    match = match or "key '%s'.*not a finite" % key
    text = "\n".join(line if ln.startswith(key + " =") else ln
                     for ln in MINIMAL.splitlines())
    if line not in text:
        text = text.replace("[lattice]", line + "\n\n[lattice]")
    with pytest.raises(ConfigError, match=match):
        parse_config(text, {"kind": kind})
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text)
    assert cli_main([kind, "--config", str(cfgfile)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert re.search(match, err)


@pytest.mark.parametrize("y_list", ["0", "0.5, nan", "inf"])
def test_lemma31_y_without_a_length_is_a_config_error(y_list, tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(MINIMAL.replace("seed = 7",
                                       "seed = 7\ny_list = " + y_list))
    assert cli_main(["lemma31", "--config", str(cfgfile)]) == EXIT_CONFIG


def test_lemma31_runs_for_tiny_and_huge_y(tmp_path, capsys):
    # |y| of 1e-300 and 1e300 has no finite nonzero Euclidean norm in
    # float64, but the ratio does not depend on |y|
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(MINIMAL.replace("seed = 7",
                                       "seed = 7\ny_list = 1, 1e-300, 1e300"))
    assert cli_main(["lemma31", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out")]) == EXIT_PASS
    assert capsys.readouterr().err == ""
    reports = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert [r["metric"] for r in reports["reports"]] == \
        ["lemma31_max_ratio"] * 3
    assert len({r["estimate"] for r in reports["reports"]}) == 1


def test_unclampable_embedding_is_a_config_error(tmp_path, capsys):
    # d = 3, beta = 0.2 on 8 cells per axis clamps 1.04% of the spectrum
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("kind = noise-validate\nd = 3\nbeta = 0.2\n"
                       "[lattice]\nn = 8\nL = 1\n")
    assert cli_main(["noise-validate", "--config", str(cfgfile)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "refine lattice" in err
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def clt_result():
    cfg = parse_config(MINIMAL)
    return cfg, run_experiment(cfg, workers=1)


def test_clt_reports_present(clt_result):
    cfg, rs = clt_result
    metrics = [r.metric for r in rs.reports]
    assert metrics.count("ks_distance") == 3
    assert "sigma_scaling_slope" in metrics
    assert "ks_rate_exponent" in metrics
    assert "ks_monotone_nonincrease" in metrics


def test_samples_csv_shape(clt_result, tmp_path):
    cfg, rs = clt_result
    files = emit_results(rs, tmp_path / "out")
    samples = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    # header + n_R * n_t * n_replicas rows
    assert len(samples) == 1 + 3 * 1 * 200
    assert samples[0] == "replica_id,R,t,G_R"


def test_emit_deterministic_and_reemittable(clt_result, tmp_path):
    cfg, rs = clt_result
    emit_results(rs, tmp_path / "a")
    emit_results(rs, tmp_path / "a")  # overwrite in place
    emit_results(rs, tmp_path / "b")
    for name in ("samples.csv", "reports.csv", "reports.json",
                 "constants.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    payload = json.loads((tmp_path / "a" / "reports.json").read_text())
    assert "Kolmogorov" in payload["distance_note"]
    assert payload["config_hash"] == cfg.config_hash()


def test_worker_count_does_not_change_results(tmp_path):
    cfg1 = parse_config(MINIMAL.replace("n_replicas = 200",
                                        "n_replicas = 120"))
    rs1 = run_experiment(cfg1, workers=1)
    cfg2 = parse_config(MINIMAL.replace("n_replicas = 200",
                                        "n_replicas = 120"))
    rs2 = run_experiment(cfg2, workers=2)
    emit_results(rs1, tmp_path / "w1")
    emit_results(rs2, tmp_path / "w2")
    for name in ("samples.csv", "reports.csv", "reports.json"):
        assert (tmp_path / "w1" / name).read_bytes() == \
            (tmp_path / "w2" / name).read_bytes()


def test_worker_count_does_not_change_results_across_blocks(tmp_path):
    # n=1024 cells give blocks of 32 replicas: 120 replicas make three
    # whole blocks and a partial one, split over two workers
    from riesz_she.engine import block_size
    text = MINIMAL.replace("n_replicas = 200", "n_replicas = 120") \
                  .replace("n = 32", "n = 1024")
    cfg1, cfg2 = parse_config(text), parse_config(text)
    assert block_size(cfg1.lattice) == 32
    emit_results(run_experiment(cfg1, workers=1), tmp_path / "w1")
    emit_results(run_experiment(cfg2, workers=2), tmp_path / "w2")
    for name in ("samples.csv", "reports.csv", "reports.json"):
        assert (tmp_path / "w1" / name).read_bytes() == \
            (tmp_path / "w2" / name).read_bytes()


def test_pool_has_one_worker_per_chunk(monkeypatch):
    # n=1024 cells give blocks of 32 replicas, so 120 replicas are 4
    # chunks; a fake pool records its size and maps in this process. With
    # 3 workers the chunks step blocks 0, 1 and 2-3
    from riesz_she import runner
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    # run_replicas imports the pool class from its module only when it
    # forks, so the fake replaces it there
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    for n, want in (("1024", [4, 3]), ("32", [])):
        cfg = parse_config(MINIMAL.replace("n = 32", "n = " + n)
                           .replace("n_replicas = 200", "n_replicas = 120"))
        cov = build_embedding(cfg.lattice, cfg.spec)
        serial = runner.run_replicas(cfg, cov, workers=1)
        assert [rid for blk in serial for rid in blk.replica_ids] == \
            list(range(120))
        for workers in (16, 3):
            pooled = runner.run_replicas(cfg, cov, workers=workers)
            assert [blk.replica_ids for blk in pooled] == \
                [blk.replica_ids for blk in serial]
            assert all(np.array_equal(p.reduced[t][0], s.reduced[t][0])
                       for p, s in zip(pooled, serial)
                       for t in cfg.record_times)
        assert sizes == want
        sizes.clear()


D2_DECAY = MINIMAL.replace("kind = clt", "kind = decay") \
                  .replace("d = 1", "d = 2") \
                  .replace("n_replicas = 200", "n_replicas = 100")


def test_decay_worker_count_does_not_change_results_d2(tmp_path):
    # n=32 in d=2 gives blocks of 32 replicas: 100 replicas make three whole
    # blocks and a partial one, split over two workers
    from riesz_she.engine import block_size
    cfgfile = tmp_path / "d2.cfg"
    cfgfile.write_text(D2_DECAY)
    assert block_size(parse_config(D2_DECAY).lattice) == 32
    for w in ("1", "2"):
        assert cli_main(["decay", "--config", str(cfgfile), "--workers", w,
                         "--out", str(tmp_path / ("w" + w))]) \
            in (EXIT_PASS, EXIT_STAT_FAIL)
    for name in ("samples.csv", "reports.csv", "reports.json"):
        assert (tmp_path / "w1" / name).read_bytes() == \
            (tmp_path / "w2" / name).read_bytes()


SINE_AFFINE = "\n[sigma]\nkind = sine-affine\na = 1\nb = 0.5\n"


def _field_stacks(cfg):
    # whole fields per record time, as a reference for the reductions
    blocks = simulate(build_embedding(cfg.lattice, cfg.spec), cfg.sigma,
                      cfg.init, cfg.T, cfg.dt, cfg.seed, range(cfg.n_replicas),
                      {t: (np.copy,) for t in cfg.record_times})
    return {t: np.concatenate([blk.reduced[t][0] for blk in blocks])
            for t in cfg.record_times}


def test_reduced_eta_and_decay_match_stacked_fields():
    # eta: sigma(u) over the torus, per replica, then over replicas
    cfg = parse_config(MINIMAL.replace("kind = clt", "kind = variance-limit")
                       .replace("n_replicas = 200", "n_replicas = 120")
                       .replace("seed = 7", "seed = 7\nrecord_times = "
                                "0.02, 0.04") + SINE_AFFINE)
    times, eta = estimate_eta(run_experiment(cfg).reduced)
    stacks = _field_stacks(cfg)
    assert list(times) == cfg.record_times
    for t, e in zip(times, eta):
        ref = cfg.sigma(stacks[t]).mean(axis=1).mean()
        assert e == pytest.approx(ref, rel=1e-12, abs=0)
    # decay: eta_hat and Psi_hat over positions and replicas, in d = 2
    cfg = parse_config(D2_DECAY + SINE_AFFINE)
    rs = run_experiment(cfg)
    lag_means = rs.reduced[cfg.T]
    su = cfg.sigma(_field_stacks(cfg)[cfg.T])
    eta_ref = su.mean()
    assert lag_means[:, 0].mean() == pytest.approx(eta_ref, rel=1e-12, abs=0)
    _, rows = correlation_decay_check(lag_means, lag_cells(cfg), cfg.lattice,
                                      cfg.spec.beta)
    dists = np.array([r[0] for r in rows])
    env = []
    for lag, (dist, psi, _) in zip(lag_cells(cfg), rows):
        psi_ref = (su * np.roll(su, lag, axis=(1, 2))).mean()
        assert psi == pytest.approx(psi_ref, rel=1e-12, abs=0)
        env.append(abs(psi_ref - eta_ref ** 2) * dist ** cfg.spec.beta)
    upper = np.array(env)[dists >= 0.5 * dists.max()]
    assert 0 < upper.min() and len(rows) == 3
    assert rs.reports[0].estimate == pytest.approx(upper.max() / upper.min(),
                                                   rel=1e-9, abs=0)


def test_decay_reduces_only_the_last_record_time(monkeypatch):
    from riesz_she import runner
    cfg = parse_config(MINIMAL.replace("kind = clt", "kind = decay")
                       .replace("n_replicas = 200", "n_replicas = 100")
                       .replace("seed = 7", "seed = 7\nrecord_times = "
                                "0.01, 0.02, 0.04"))
    real, blocks = runner.run_replicas, []

    def spy(*args, **kwargs):
        blocks.extend(real(*args, **kwargs))
        return blocks
    monkeypatch.setattr(runner, "run_replicas", spy)
    rs = run_experiment(cfg)
    assert sum(len(blk.replica_ids) for blk in blocks) == 100
    # G_R at every record time; the lag means at the last one only
    assert all({t: len(r) for t, r in blk.reduced.items()}
               == {0.01: 1, 0.02: 1, 0.04: 2} for blk in blocks)
    assert rs.reduced.keys() == {0.04} and rs.reports


def test_decay_lags_out_of_range_is_a_config_error(tmp_path, monkeypatch):
    # n = 64, L = 4: lags must lie in [2h, L/4] = [0.25, 1], that is
    # 2 to 8 cells; a lattice of 8 cells has no default lag inside
    text = MINIMAL.replace("n = 32", "n = 64") \
                  .replace("n_replicas = 200", "n_replicas = 100")
    decay = text.replace("kind = clt", "kind = decay")
    for bad in (decay.replace("seed = 7", "seed = 7\nlags = 1, 2, 4"),
                decay.replace("seed = 7", "seed = 7\nlags = 2, 9"),
                decay.replace("n = 64", "n = 8")):
        with pytest.raises(ConfigError, match=r"outside \[2h, L/4\]"):
            parse_config(bad)
    parse_config(decay.replace("seed = 7", "seed = 7\nlags = 2, 4, 8"))

    def no_run(cfg, workers=1):
        raise AssertionError("simulated before the lags were checked")
    monkeypatch.setattr("riesz_she.cli.run_experiment", no_run)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text.replace("seed = 7", "seed = 7\nlags = 1, 2, 4"))
    assert cli_main(["decay", "--config", str(cfgfile)]) == EXIT_CONFIG


@pytest.mark.parametrize("text, match", [
    # lags 2 and 8 of n = 64, L = 4 are 0.25 and 1 long: 1 alone reaches 0.5
    pytest.param(MINIMAL.replace("kind = clt", "kind = decay")
                 .replace("dt = 0.01", "dt = 0.002")
                 .replace("n = 32", "n = 64")
                 .replace("n_replicas = 200", "n_replicas = 100")
                 .replace("seed = 7", "seed = 601\nlags = 2, 8"),
                 r"lags \[2\], \[8\] \(distances 0.25, 1\): fewer than 2",
                 id="lags-2-8"),
    # n = 16, L = 8: h = 1 and L/4 = 2, so the default lags are [2] alone
    pytest.param(MINIMAL.replace("kind = clt", "kind = decay")
                 .replace("T = 0.04\ndt = 0.01", "T = 0.25")
                 .replace("R_list = 0.5, 1, 2", "R_list = 1, 2")
                 .replace("n = 32", "n = 16").replace("L = 4.0", "L = 8.0")
                 .replace("n_replicas = 200", "n_replicas = 100"),
                 r"lags \[2\] .* set lags or refine the lattice",
                 id="default-lags-n16"),
])
def test_decay_needs_two_lags_in_the_upper_half(text, match, tmp_path,
                                                 capsys):
    # the envelope's max/min over one lag is 1, a pass whatever the data
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text)
    assert cli_main(["decay", "--config", str(cfgfile)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: lags")


@pytest.mark.parametrize("kind, sigma", [
    ("clt", ""), ("decay", ""), ("noise-validate", ""),
    ("variance-limit", SINE_AFFINE), ("fclt", SINE_AFFINE)])
def test_too_few_replicas_is_a_config_error(kind, sigma, tmp_path,
                                            monkeypatch):
    text = MINIMAL.replace("kind = clt", "kind = " + kind) \
                  .replace("seed = 7", "seed = 7\nrecord_times = 0.02, 0.04")
    with pytest.raises(ConfigError, match="n_replicas >= 100, got 60"):
        parse_config(text.replace("n_replicas = 200", "n_replicas = 60")
                     + sigma)
    parse_config(text.replace("n_replicas = 200", "n_replicas = 100") + sigma)

    def no_run(cfg, workers=1):
        raise AssertionError("simulated before the replica count was checked")
    monkeypatch.setattr("riesz_she.cli.run_experiment", no_run)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text + sigma)
    assert cli_main([kind, "--config", str(cfgfile), "--replicas", "60"]) \
        == EXIT_CONFIG


@pytest.mark.parametrize("kind", ["variance-limit", "fclt", "tightness"])
def test_few_replicas_accepted_where_no_statistic_needs_them(kind):
    # exact eta (linear sigma, constant start) is not estimated
    parse_config(MINIMAL.replace("kind = clt", "kind = " + kind)
                 .replace("n_replicas = 200", "n_replicas = 60")
                 .replace("dt = 0.01", "dt = 0.002")
                 .replace("seed = 7", "seed = 7\nrecord_times = "
                          "0.002, 0.004, 0.008, 0.016, 0.04"))


@pytest.mark.parametrize("kind, need", [("variance-limit", 2), ("fclt", 6)])
def test_exact_eta_kinds_need_a_sample_covariance(kind, need, tmp_path,
                                                  monkeypatch):
    # exact eta: variance-limit needs a sample variance, fclt a full-rank
    # covariance over its 5 record times
    text = (MINIMAL.replace("kind = clt", "kind = " + kind)
            .replace("dt = 0.01", "dt = 0.002")
            .replace("seed = 7", "seed = 7\nrecord_times = "
                     "0.008, 0.016, 0.024, 0.032, 0.04"))
    with pytest.raises(ConfigError, match="n_replicas >= %d, got %d"
                       % (need, need - 1)):
        parse_config(text.replace("n_replicas = 200",
                                  "n_replicas = %d" % (need - 1)))
    rs = run_experiment(parse_config(
        text.replace("n_replicas = 200", "n_replicas = %d" % need)))
    assert rs.reports and all(np.isfinite(r.estimate) for r in rs.reports)

    def no_run(cfg, workers=1):
        raise AssertionError("simulated before the replica count was checked")
    monkeypatch.setattr("riesz_she.cli.run_experiment", no_run)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text)
    assert cli_main([kind, "--config", str(cfgfile),
                     "--replicas", str(need - 1)]) == EXIT_CONFIG


def test_cli_kinds_are_the_kinds_table():
    (kind,) = [a for a in build_parser()._actions if a.dest == "kind"]
    assert kind.choices == list(KINDS)


# one config that every kind accepts at 200 replicas
EVERY_KIND = MINIMAL.replace("dt = 0.01", "dt = 0.002").replace(
    "seed = 7", "seed = 7\ny_list = 1\n"
    "record_times = 0.002, 0.004, 0.008, 0.016, 0.04")


def _every_kind_text(kind):
    text = EVERY_KIND.replace("kind = clt", "kind = " + kind)
    if kind in ("variance-limit", "fclt"):
        text += SINE_AFFINE  # eta is estimated, so the table's count applies
    return text


@pytest.mark.parametrize("kind", list(KINDS))
def test_fewest_replicas_come_from_the_kinds_table(kind):
    fewest = KINDS[kind][3]
    text = _every_kind_text(kind)
    with pytest.raises(ConfigError, match="n_replicas >= %d, got %d"
                       % (fewest, fewest - 1)):
        parse_config(text.replace("n_replicas = 200",
                                  "n_replicas = %d" % (fewest - 1)))
    parse_config(text.replace("n_replicas = 200", "n_replicas = %d" % fewest))


@pytest.mark.parametrize("kind", list(KINDS))
def test_run_experiment_steps_the_kinds_the_table_marks(kind, monkeypatch):
    from riesz_she import runner
    calls, real = [], runner.run_replicas
    monkeypatch.setattr(runner, "run_replicas",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    run_experiment(parse_config(_every_kind_text(kind)))
    assert len(calls) == (1 if KINDS[kind][1] else 0)


@pytest.mark.parametrize("where", ["riesz_she.observables.Region.mask",
                                   "riesz_she.runner.run_replicas"])
def test_out_of_memory_is_a_config_error(where, tmp_path, monkeypatch,
                                         capsys):
    # numpy's MemoryError for a lattice too large, raised in validation
    # (Region.mask) or in the run; nothing is allocated here
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array with "
                          "shape (1024, 1024, 1024) and data type float64")
    monkeypatch.setattr(where, no_memory)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(MINIMAL)
    out = tmp_path / "out"
    assert cli_main(["clt", "--config", str(cfgfile),
                     "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: out of memory: Unable to allocate")
    assert not out.exists()


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_bytes(b"kind = clt\nd = 1\xff\n")
    assert cli_main(["clt", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: cannot read config %s: 'utf-8' codec can't decode "
        "byte 0xff in position 16: invalid start byte\n" % cfgfile)
    # UTF-8 text reads as such, whatever the locale's encoding
    cfgfile.write_text(MINIMAL + "# \u03b2 < d\n", encoding="utf-8")
    assert load_config(str(cfgfile)).canonical_text() \
        == parse_config(MINIMAL).canonical_text()


def test_config_with_a_byte_order_mark_loads(tmp_path):
    # editors that save UTF-8 with a BOM put U+FEFF before the first key
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_bytes(b"\xef\xbb\xbf" + MINIMAL.lstrip().encode())
    assert load_config(str(cfgfile)).canonical_text() \
        == parse_config(MINIMAL).canonical_text()


D7 = """
kind = %s
d = 7
beta = 0.5
T = 0.04
R_list = 1, 2, 3
region_kind = %s
y_list = 1

[lattice]
n = 2
L = 4.0
"""


@pytest.fixture
def no_cell_quadrature(monkeypatch):
    # at d = 7 the quadrature would ask for 8.5 GiB inside this process
    def refuse(d, beta):
        raise AssertionError("reached the cell quadrature at d = %d" % d)
    for module in ("riesz_she.noise", "riesz_she.observables"):
        monkeypatch.setattr(module + ".cube_pair_integral", refuse)


def test_cell_quadrature_above_d6_is_a_config_error(no_cell_quadrature,
                                                    tmp_path, capsys):
    for kind, region in (("noise-validate", "ball"), ("clt", "ball"),
                         ("constants", "box")):
        with pytest.raises(ConfigError, match="d must be at most 6 for kind "
                           "%r, .* got d = 7" % kind):
            parse_config(D7 % (kind, region))
    parse_config((D7 % ("constants", "box")).replace("d = 7", "d = 6"))
    # no quadrature: the ball's constant is closed-form, lemma31's kernel too
    for kind in ("constants", "lemma31"):
        assert run_experiment(parse_config(D7 % (kind, "ball"))).all_passed
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(D7 % ("constants", "box"))
    assert cli_main(["constants", "--config", str(cfgfile)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(
        "config error: d must be at most 6")


COSINE_START = ("\n[init]\nkind = cosine\noffset = 1.25\namplitude = 0.75\n"
                "cycles = 2\n")


@pytest.mark.parametrize("kind, metric, extra", [
    ("variance-limit", "normalized_variance", ""),
    ("fclt", "fclt_correlation", ""),
    ("variance-limit", "normalized_variance", SINE_AFFINE),
    ("fclt", "fclt_correlation", COSINE_START),
], ids=["variance-limit-normalized_variance", "fclt-fclt_correlation",
        "variance-limit-sine-affine", "fclt-cosine-start"])
def test_limit_constant_kinds_run_and_emit(kind, metric, extra, tmp_path,
                                           monkeypatch):
    # both kinds normalise by k * int_0^t eta^2, so they reach the runner's
    # map of it end to end; a nonlinear sigma or a cosine start makes the
    # runner estimate eta from one torus mean per replica and time
    from riesz_she import runner
    cfg = parse_config(MINIMAL.replace("kind = clt", "kind = " + kind)
                       .replace("seed = 7",
                                "seed = 7\nrecord_times = 0.02, 0.04")
                       + extra)
    estimated = bool(extra)
    assert cfg.eta_exact != estimated
    real, blocks = runner.run_replicas, []

    def spy(*args, **kwargs):
        blocks.extend(real(*args, **kwargs))
        return blocks
    monkeypatch.setattr(runner, "run_replicas", spy)
    real_eta, eta_calls = runner.estimate_eta, []

    def eta_spy(means):
        eta_calls.append(means)
        return real_eta(means)
    monkeypatch.setattr(runner, "estimate_eta", eta_spy)
    rs = run_experiment(cfg)
    assert blocks and all(not blk.fields_at_times for blk in blocks)
    # G_R, then one torus mean per replica and record time where eta is
    # estimated
    assert all(g.shape == (len(blk.replica_ids), len(cfg.R_list))
               and [v.shape for v in kind]
               == [(len(blk.replica_ids), 1)] * estimated
               for blk in blocks for g, *kind in blk.reduced.values())
    assert len(eta_calls) == estimated
    reps = [r for r in rs.reports if r.metric == metric]
    assert reps and all(np.isfinite(r.estimate) and np.isfinite(r.target)
                        and r.target > 0 for r in reps)
    emit_results(rs, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert [r["metric"] for r in payload["reports"]] == \
        [r.metric for r in rs.reports]
    assert metric in (tmp_path / "out" / "reports.csv").read_text()


def test_estimated_eta_target_does_not_depend_on_record_time_zero():
    # eta(0) is the torus mean of sigma(u0) whether or not 0 is a record
    # time; record time 0 only adds G_R(0) = 0 to the samples
    text = (MINIMAL.replace("kind = clt", "kind = variance-limit")
            .replace("dt = 0.01", "dt = 0.002")
            .replace("R_list = 0.5, 1, 2", "R_list = 0.5, 1")
            .replace("seed = 7", "seed = 601\nrecord_times = %s")
            .replace("n = 32", "n = 64")
            + "\n[sigma]\nkind = sine-affine\na = 0.5\nb = 0.8\nc = 0.1\n"
            + COSINE_START)
    targets = []
    for times in ("0.02, 0.04", "0, 0.02, 0.04"):
        rs = run_experiment(parse_config(text % times))
        targets.append([r.target for r in rs.reports
                        if r.metric == "normalized_variance"])
    assert len(targets[0]) == 2 and targets[0] == targets[1]


def test_cli_tightness_writes_outputs(tmp_path):
    # increment gaps 0.002 .. 0.038 span a decade
    cfgfile = tmp_path / "tight.cfg"
    cfgfile.write_text(MINIMAL.replace("dt = 0.01", "dt = 0.002")
                       .replace("seed = 7", "seed = 7\nrecord_times = "
                                "0.002, 0.004, 0.008, 0.016, 0.04"))
    outdir = tmp_path / "out"
    code = cli_main(["tightness", "--config", str(cfgfile),
                     "--out", str(outdir)])
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)
    assert sorted(p.name for p in outdir.iterdir()) == [
        "constants.csv", "manifest.json", "reports.csv", "reports.json",
        "samples.csv"]
    payload = json.loads((outdir / "reports.json").read_text())
    assert [r["metric"] for r in payload["reports"]] == \
        ["increment_moment_slope", "increment_r_scaling"]


def test_empty_resultset_emits_headers(tmp_path):
    cfg = parse_config(CONSTANTS_CFG)
    rs = ResultSet(config=cfg)
    emit_results(rs, tmp_path / "empty")
    assert (tmp_path / "empty" / "samples.csv").read_bytes() \
        == b"replica_id,R,t,G_R\r\n"
    assert (tmp_path / "empty" / "constants.csv").read_text().startswith(
        "name,d,beta,region_kind")
    assert rs.all_passed  # vacuously; exit code 0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


# the canonical text of CONSTANTS_CFG hashes to this
CONSTANTS_HASH = \
    "65d0f8edea57e728eab981bfa61befde967a39b37b2af69381b07c9373e4f294"
GOLDEN_FILES = {
    "samples.csv": "replica_id,R,t,G_R\r\n"
                   "0,0.5,0.25,1.5\r\n1,0.5,0.25,2\r\n2,0.5,0.25,-1\r\n"
                   "0,0.5,0.5,-0\r\n1,0.5,0.5,3\r\n"
                   "2,0.5,0.5,0.33333333333333331\r\n"
                   "0,2,0.5,0.10000000000000001\r\n1,2,0.5,-2.5e-300\r\n"
                   "2,2,0.5,1e+17\r\n",
    "reports.csv": "metric,params,estimate,stderr,target,tolerance,pass\r\n"
                   "ks_distance,R=2.0;t=0.5,0.10000000000000001,,0,inf,false"
                   "\r\n"
                   'lemma31_max_ratio,"d=2;y=(1e-300, 0.0)",'
                   "0.33333333333333331,2.4999999999999999e-17,"
                   "1.3742609175239446,0.02,true\r\n",
    "reports.json": """{
  "config_hash": "<hash>",
  "distance_note": "Kolmogorov distance stands in for total variation; \
both obey the same rate bound.",
  "n_replicas": 100,
  "reports": [
    {
      "estimate": 0.1,
      "metric": "ks_distance",
      "note": "",
      "params": "R=2.0;t=0.5",
      "pass": false,
      "stderr": "",
      "target": 0.0,
      "tolerance": Infinity
    },
    {
      "estimate": 0.3333333333333333,
      "metric": "lemma31_max_ratio",
      "note": "small-s ratio 1.000000",
      "params": "d=2;y=(1e-300, 0.0)",
      "pass": true,
      "stderr": 2.5e-17,
      "target": 1.3742609175239446,
      "tolerance": 0.02
    }
  ],
  "seed": 0
}
""",
    "constants.csv": "name,d,beta,region_kind,value,stderr,method\r\n"
                     "k_beta,1,0.5,ball,7.5424723326565069,0,closed-form\r\n",
    "manifest.json": """{
  "config": "kind = constants\\nd = 1\\nbeta = 0.5\\nT = 0\\ndt = 0.0625\\n\
record_times = \\nR_list = \\nregion_kind = ball\\nn_replicas = 100\\n\
seed = 0\\np_moment = 2\\n\\n[lattice]\\nn = 4\\nL = 1\\n\\n[sigma]\\n\
kind = linear\\n\\n[init]\\nkind = constant\\nvalue = 1\\n",
  "config_hash": "<hash>",
  "files": [
    "samples.csv",
    "reports.csv",
    "reports.json",
    "constants.csv"
  ],
  "seed": 0,
  "versions": {
    "numpy": "<numpy>",
    "riesz_she": "<riesz_she>"
  }
}
""",
}


def test_emitted_files_are_pinned(tmp_path):
    # a hand-built ResultSet, so no byte depends on the FFT or the machine
    cfg = parse_config(CONSTANTS_CFG)
    rs = ResultSet(config=cfg, samples={
        2.0: {0.5: np.array([0.1, -2.5e-300, 1e17])},
        0.5: {0.5: np.array([-0.0, 3.0, 1 / 3]),
              0.25: np.array([1.5, 2.0, -1.0])}})
    rs.reports = [
        StatsReport(metric="ks_distance", params={"t": 0.5, "R": 2.0},
                    estimate=0.1, target=0.0, tolerance=float("inf"),
                    passed=False),
        StatsReport(metric="lemma31_max_ratio",
                    params={"y": (1e-300, 0.0), "d": 2}, estimate=1 / 3,
                    target=1.3742609175239446, tolerance=0.02, passed=True,
                    stderr=2.5e-17, note="small-s ratio 1.000000")]
    rs.constants = [("k_beta", 1, 0.5, "ball", 7.542472332656507, 0.0,
                     "closed-form")]
    written = emit_results(rs, tmp_path)
    assert written == [str(tmp_path / name) for name in GOLDEN_FILES]
    for name, text in GOLDEN_FILES.items():
        text = (text.replace("<hash>", CONSTANTS_HASH)
                .replace("<numpy>", np.__version__)
                .replace("<riesz_she>", __version__))
        assert (tmp_path / name).read_bytes() == text.encode(), name
