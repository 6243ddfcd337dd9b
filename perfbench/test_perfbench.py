"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run as bench


def _write_outputs(out_dir, sample_rows, slope=0.76):
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "samples.csv"), "w") as fh:
        fh.write("replica_id,R,t,G_R\n")
        for row in sample_rows:
            fh.write(",".join(row) + "\n")
    with open(os.path.join(out_dir, "reports.json"), "w") as fh:
        json.dump({"n_replicas": 400, "reports": [
            {"metric": "ks_distance", "params": "R=4.0;t=0.25"},
            {"metric": "ks_distance", "params": "R=16.0;t=0.25"},
            {"metric": "sigma_scaling_slope", "params": "t=0.25",
             "estimate": slope, "target": 0.75, "tolerance": 0.05}]}, fh)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"files": ["samples.csv", "reports.json"]}, fh)


def test_check_outputs_accepts_good_and_names_each_defect(tmp_path):
    good = [("0", "4", "0.25", "0.5"), ("1", "4", "0.25", "-0.25")]
    _write_outputs(tmp_path / "good", good)
    clt = bench.SANITY["clt"]
    reason, hashes = bench.check_outputs(str(tmp_path / "good"), 2, clt)
    assert reason is None
    assert sorted(hashes) == ["manifest.json", "reports.json", "samples.csv"]

    reason, _ = bench.check_outputs(str(tmp_path / "good"), 3)
    assert "rows" in reason

    _write_outputs(tmp_path / "nan", [("0", "4", "0.25", "nan")])
    reason, _ = bench.check_outputs(str(tmp_path / "nan"), 1)
    assert "non-finite" in reason

    _write_outputs(tmp_path / "off", good, slope=0.5)
    reason, _ = bench.check_outputs(str(tmp_path / "off"), 2, clt)
    assert "5 se" in reason

    reason, _ = bench.check_outputs(str(tmp_path / "good"), 2,
                                    bench.SANITY["decay"])
    assert "correlation_decay_envelope" in reason

    os.remove(tmp_path / "good" / "reports.json")
    reason, _ = bench.check_outputs(str(tmp_path / "good"), 2)
    assert "missing" in reason

    reason, _ = bench.check_outputs(str(tmp_path / "absent"), 0)
    assert "manifest.json" in reason


def test_traceback_is_a_failure_whatever_the_exit_code():
    rec = {"kind": "fclt", "exit_code": 1, "probe": {"traceback": False},
           "stderr": "Traceback (most recent call last):\n  ...\n"
                     "AttributeError: module 'numpy' has no attribute "
                     "'trapz'\n"}
    reason = bench.judge(rec, "unused", bench.WORKLOADS["kinds-sweep"])
    assert reason.startswith("traceback: AttributeError")


def test_times_are_scaled_to_the_reference_host_speed():
    # the calibration kernel took twice its reference time: a host at half
    # speed, so every time is halved and the rate doubled
    rec = {"wall_s": 4.0, "t_launch": 10.0, "failure": None,
           "peak_rss_mb": 50.0, "calib_s": [2 * bench.CALIBRATION_REF_S] * 2,
           "probe": {"marks": {"setup_end": 11.0},
                     "replicas": [[11.0, 13.0, 1000]]}}
    m = bench.repetition_metrics([rec])
    assert m["wall_s"] == pytest.approx(2.0)
    assert m["setup_s"] == pytest.approx(0.5)
    assert m["replica_steps_per_s"] == pytest.approx(1000.0)
    assert m["raw_wall_s"] == 4.0


def test_d2_fields_hash_the_same_with_one_and_two_workers(tmp_path):
    wl = bench.WORKLOADS["d2-decay-fields"]
    cfg = tmp_path / "config.txt"
    cfg.write_text(re.sub(r"n_replicas = \d+", "n_replicas = 120",
                          wl.config % {"seed": 5}))
    hashes = []
    for workers in (1, 2):
        out = str(tmp_path / ("out%d" % workers))
        rec = bench.run_process("decay", workers, str(cfg), out,
                                str(tmp_path / ("w%d.probe" % workers)),
                                "timed")
        assert rec["exit_code"] in (0, 1), rec["stderr"]
        reason, h = bench.check_outputs(out, 120 * 3)
        assert reason is None
        hashes.append(h)
    assert len(hashes[0]) == 5
    assert hashes[0] == hashes[1]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(os.path.join(bench.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d1-ref-clt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_end_group_kills_and_reaps_what_a_process_left_behind():
    bench.become_subreaper()
    proc = subprocess.Popen(["sh", "-c", "sleep 60 & echo $!"],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    orphan = int(proc.stdout.readline())
    proc.stdout.close()
    proc.wait()
    bench._end_group(proc.pid)
    with pytest.raises(ProcessLookupError):
        os.kill(orphan, 0)


def test_a_run_leaves_no_process_behind():
    # as a subreaper this process inherits anything the run orphans, so a
    # clean run leaves it with no child at all, running or exited
    bench.become_subreaper()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d1-ref-clt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
