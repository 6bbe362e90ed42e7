"""The benchmark's own tests: python3 -m pytest perfbench -q (from the repository root)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import wrearr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "7", "--seconds", "0.3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_benchmark_json_names_the_workloads_run_accepts():
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_without_the_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "verify-suite", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]

    def inputs(seed):
        return json.dumps([r.inputs for r in workload.build_pool(seed)])

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def _first(name, seed=3):
    workload = workloads.WORKLOADS[name]
    req = workload.build_pool(seed)[0]
    return workload, req, workload.request(req.inputs, req.reference)


def test_spectral_checks_flag_planted_wrong_answers():
    workload, req, out = _first("spectral-blocks")
    assert workload.check(req.reference, out) > 10
    plants = {
        "singular_values": lambda s: s * np.where(np.arange(s.size) == 1, 1 + 1e-8, 1.0),
        "projection": lambda p: p + 1e-6 * np.eye(p.shape[0]),
        "trace": lambda t: t * (1 + 1e-8),
        "l2_b": lambda v: v * (1 + 1e-8),
    }
    for key, plant in plants.items():
        with pytest.raises(workloads.CheckFailed):
            workload.check(req.reference, {**out, key: plant(out[key])})


def test_orlicz_checks_flag_planted_wrong_answers():
    workload, req, out = _first("orlicz-multipliers")
    assert workload.check(req.reference, out) > 8
    na, nb, ma, mb = out["orlicz:cosh-1"]
    pa, pb, pma, pmb = out["orlicz:pow:3"]
    plants = [
        ("orlicz:cosh-1", (na, nb * (1 + 1e-6), ma, mb)),  # route gap
        ("orlicz:cosh-1", (na, nb, ma, not mb)),  # membership routes disagree
        ("orlicz:cosh-1", (na, nb, False, False)),  # finite norm, no membership
        ("orlicz:pow:3", (pa * (1 + 1e-7), pb * (1 + 1e-7), pma, pmb)),  # off the closed form
    ]
    for key, planted in plants:
        with pytest.raises(workloads.CheckFailed):
            workload.check(req.reference, {**out, key: planted})


def test_verify_check_flags_a_failing_property():
    workload, req, result = _first("verify-suite")
    assert workload.check(req.reference, result) > 0
    result.failures = 1
    with pytest.raises(workloads.CheckFailed):
        workload.check(req.reference, result)


def test_planted_library_defect_fails_every_request(monkeypatch):
    real_svd = wrearr.algebra.one_sided_svd

    def perturbed(matrix, **kwargs):
        s, v = real_svd(matrix, **kwargs)
        return s * (1 + 1e-6), v

    monkeypatch.setattr(wrearr.algebra, "one_sided_svd", perturbed)
    workload = workloads.WORKLOADS["spectral-blocks"]
    records = run.closed_loop(workload, workload.build_pool(5), seconds=0.0)
    accuracy, failures = run.check_all(workloads, workload, records)
    assert accuracy == [] and len(failures) == len(records) == workload.cycle
    assert "singular values" in failures[0]


def test_tracer_rebinds_everywhere_and_restores():
    original = wrearr.norms.modular
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wrearr.norms.modular is not original
        assert wrearr.modular is wrearr.norms.modular is wrearr.verify.modular
        assert isinstance(wrearr.ExpWeight().density, wrearr.ExponentialDensity)
        workload, req, out = _first("orlicz-multipliers")
    finally:
        tracer.uninstall()
    assert wrearr.norms.modular is original and wrearr.verify.modular is original
    spans = tracer.arrays()
    names = set(spans["names"][spans["name_id"]])
    assert {"norms.modular", "norms.luxemburg_norm", "stepfn.StepFunction.scaled",
            "formats.parse_operator"} <= names
    assert np.all(tracing.self_times(spans) >= -1e-9)


def test_self_time_subtracts_direct_children():
    spans = {
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
    }
    assert tracing.self_times(spans).tolist() == [6.0, 2.0, 1.0, 1.0]
