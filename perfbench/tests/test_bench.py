"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Each workload runs once at tiny scale, untraced and traced, in a child
process exactly as the benchmark is invoked; the tests check that every
declared metric is printed with its unit and that the layers on a workload's
path were actually traced. The negative tests check that the gate fails an
op whose output changed. One test checks that the host-speed sampler takes
its own time out of an op's wall time and restores the alarm signal.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import run, workloads                     # noqa: E402
from perfbench.gate import Gate                           # noqa: E402
from perfbench.hostspeed import REFERENCE_S, HostSpeed    # noqa: E402
from perfbench.spans import Tracer                        # noqa: E402

# metrics that must be non-zero in a traced run of each workload
ON_PATH = {
    "extract_brats": ("volumeio.", "imagefeat.", "radiomics.",
                      "phantoms.gen_mask_s"),
    "extract_desk": ("volumeio.", "imagefeat.", "radiomics.",
                     "phantoms.gen_mask_s"),
    "rfe": ("featselect.", "regressors.fit_s.rfr", "regressors.rfr.",
            "cohort.load_s", "cli.self_s", "phantoms.gen_cohort_s"),
    "experiment": ("regressors.", "prognosis.", "cohort.load_s", "cli.self_s",
                   "phantoms.gen_cohort_s"),
}
E2E_LINES = {
    "extract_brats": ("setup_s s", "subjects_per_s 1/s", "subject_p50_s s",
                      "peak_rss_mb MiB", "ops_failed_frac fraction"),
    "rfe": ("setup_s s", "run_p50_s s", "peak_rss_mb MiB",
            "ops_failed_frac fraction"),
}
E2E_LINES["extract_desk"] = E2E_LINES["extract_brats"]
E2E_LINES["experiment"] = E2E_LINES["rfe"]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_prints_every_metric(name, trace):
    done = _bench(ROOT, "--workload", name, "--seed", "5", "--seconds", "0.2",
                  "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    printed = {" ".join((line.split()[1], line.split()[4]))
               for line in lines if line.startswith(("metric ", "layer "))}
    assert set(E2E_LINES[name]) <= printed
    if trace:
        assert {f"{m['name']} {m['unit']}" for m in declared} <= printed
        for metric, value in result["metrics"].items():
            if metric.startswith(ON_PATH[name]):
                assert value["value"] > 0, metric
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_host_speed_sampling_is_taken_out_of_the_wall_time():
    host = HostSpeed()

    def busy():
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    result, took = host.time(busy)
    assert result == "done"
    assert signal.getsignal(signal.SIGALRM) is before
    assert took.samples >= 5                   # before, during, after
    assert took.wall < 1.0                     # handler time taken out
    assert took.adjusted == took.wall * REFERENCE_S / took.reference

    def fails():
        raise KeyError("op failed")

    with pytest.raises(KeyError):
        host.time(fails)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_perturbed_output_counts_as_failed(tmp_path, monkeypatch):
    workload = workloads.ExtractDesk(5, workloads.SCALES["tiny"],
                                     str(tmp_path), Tracer(False))
    workload.generate()
    gate = Gate({}, str(tmp_path / "digests.json"), "test/")
    _, ran, failed = run._run_ops(workload, gate, 0.0, False, workload.cycle)
    assert (ran, failed) == (workload.cycle, 0)

    real = workloads.extract_radiomics

    def perturbed(*args, **kwargs):
        vector = real(*args, **kwargs)
        vector.values[40] *= 1.0 + 1e-6
        return vector

    monkeypatch.setattr(workloads, "extract_radiomics", perturbed)
    _, ran, failed = run._run_ops(workload, gate, 0.0, False, 1)
    assert (ran, failed) == (1, 1)
    assert gate.errors and "earlier op" in gate.errors[0]


def _drop_last_column(text):
    return "".join(line.rsplit(",", 1)[0] + "\n"
                   for line in text.splitlines())


def _rename_first_feature(text):
    lines = text.splitlines(keepends=True)
    second = lines[2].split(",", 1)[0]
    lines[1] = second + "," + lines[1].split(",", 1)[1]
    return "".join(lines)


@pytest.mark.parametrize("name, corrupt", [
    ("reduced_features.csv", _drop_last_column),
    ("ranking.csv", _rename_first_feature),
])
def test_rfe_output_of_wrong_shape_counts_as_failed(tmp_path, name, corrupt):
    # a first run of the command has no reference digest for its outputs,
    # so only the structural checks can fail it
    workload = workloads.Rfe(5, workloads.SCALES["tiny"], str(tmp_path),
                             Tracer(False))
    workload.generate()
    real = workload.op

    def op_then_corrupt(i):
        real(i)
        path = os.path.join(workload.out, name)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corrupt(text))

    workload.op = op_then_corrupt
    gate = Gate({}, str(tmp_path / "digests.json"), "test/")
    _, ran, failed = run._run_ops(workload, gate, 0.0, False, 1)
    assert (ran, failed) == (1, 1)


def test_fixed_digest_mismatch_fails(tmp_path):
    gate = Gate({"desk-000": "0" * 24}, str(tmp_path / "digests.json"),
                "test/")
    assert not gate.check("desk-000", "desk-000,1,2,3")
    assert gate.check("desk-001", "desk-001,1,2,3")
    assert "fixed digest" in gate.errors[0]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "extract_desk", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_extract_op_row_equals_the_extract_command_row(tmp_path):
    from radsurv import cli
    from radsurv.util import write_csv
    from radsurv.volumeio import SubjectRecord, write_metadata_csv

    workload = workloads.ExtractBrats(5, workloads.SCALES["tiny"],
                                      str(tmp_path), Tracer(False))
    workload.generate()
    manifest = tmp_path / "subjects.csv"
    metadata = tmp_path / "meta.csv"
    write_csv(str(manifest), ["ID", "mask", "scan"],
              [[s.sid, s.mask_path, s.scan_path] for s in workload.subjects])
    write_metadata_csv(str(metadata), [SubjectRecord(s.sid, s.age)
                                       for s in workload.subjects])
    out = tmp_path / "features.csv"
    assert cli.main(["extract", "--subjects", str(manifest), "--metadata",
                     str(metadata), "--out", str(out)]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        written = fh.read().splitlines()[1:]
    ours = [workload.rows(i, workload.op(i))[0][1]
            for i in range(len(workload.subjects))]
    assert ours == written
