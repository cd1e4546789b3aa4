"""The benchmark's own test: every workload at its seconds-long size.

Run from the repository root:

    python3 -m pytest pipebench/selftest.py -q

Each workload runs untraced and traced at ``--size tiny`` through every
check; the result line must be correct, with no failed operation, and
carry exactly the metrics ``BENCHMARK.json`` names.  The tier-1 suite
does not collect this file (it is not named ``test_*.py``): it runs the
benchmark end to end, which takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, str(cwd / "pipebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    result = _result(_run(workload, trace=0))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = result["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == want
    for name, metric in got.items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    proc = _run(workload, trace=1)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # Layers every workload calls.
    for name in ("home.simulate_self_s", "datasets.discretize_s", "mining.constraint_s",
                 "core.train_s", "core.prepare_s", "core.candidates_s", "core.transition_s",
                 "core.forward_self_s", "core.backward_self_s", "smoother.push_ms",
                 "smoother.push_many_s", "core.joint_states_per_step"):
        assert got[name] > 0, name
    uses_rules = workload != "batch_casas_ncs"
    assert (got["mining.correlation_s"] > 0) == uses_rules
    assert (got["mining.rules"] > 0) == uses_rules
    assert got["core.viterbi_self_s"] > 0
    # Only the trio's set-up decodes through the pool; its workers' spans
    # reach the parent through the trace files.
    trace = ROOT / "pipebench" / "out" / f"trace-{workload}-s3.json"
    spans = json.loads(trace.read_text())["processes"]
    assert (len(spans) > 1) == (workload == "batch_trio_c2")


def test_fails_without_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, a run must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=skip)
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
