"""The benchmark's own tests: every workload at tiny size.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import NAMES, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("simmpi.handoffs_per_run", "simmpi.events_per_run",
         "simmpi.messages_per_run", "cache.hit_frac", "cache.stale")


def bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    """Run the benchmark command at tiny size; return (process, result)."""
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def _expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_with_units(workload):
    proc, result = bench(workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in got.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in f"{line} "
                   for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_layer_metric(workload):
    proc, result = bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected("per_layer")
    assert "named layers" in proc.stdout
    assert "tracing overhead" in proc.stdout


@pytest.mark.parametrize("workload", NAMES)
def test_seeds_change_inputs_not_metric_names(workload):
    assert make_inputs(workload, 1, "tiny") != make_inputs(workload, 2, "tiny")
    assert make_inputs(workload, 1, "tiny") == make_inputs(workload, 1, "tiny")
    _, first = bench(workload, seed=1)
    _, second = bench(workload, seed=2)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(second["metrics"])


@pytest.mark.parametrize("workload", ["protocols-serial", "campaign-rerun"])
def test_exact_counts_repeat_at_the_same_seed(workload):
    # Each traced call is also checked against its untraced twin inside
    # the run (a mismatch makes the result incorrect).
    _, first = bench(workload, seed=3, trace=1)
    _, second = bench(workload, seed=3, trace=1)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["cache.stale"]["value"] == 0
    if workload == "campaign-rerun":
        assert first["metrics"]["cache.hit_frac"]["value"] == 0.5


def test_traced_counts_equal_the_reference_ring():
    # ring-steady runs one fixed ring shape; compute its counts directly.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "from repro.core import RingConfig, Termination, make_ring_main\n"
        "from repro.simmpi import Simulation\n"
        "cfg = RingConfig(max_iter=3, termination=Termination.NONE)\n"
        "r = Simulation(nprocs=4).run(make_ring_main(cfg))\n"
        "print(r.perf.handoffs, r.perf.events_executed, r.perf.messages_sent)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, check=True, timeout=60).stdout
    handoffs, events, messages = map(int, out.split())
    _, result = bench("ring-steady", trace=1)
    m = result["metrics"]
    assert m["simmpi.handoffs_per_run"]["value"] == handoffs
    assert m["simmpi.events_per_run"]["value"] == events
    assert m["simmpi.messages_per_run"]["value"] == messages


def test_mismatched_output_fails_the_run(tmp_path):
    # A reference that disagrees with the program must fail the check.
    work = tmp_path / "work"
    work.mkdir()
    (work / "inputs.json").write_text(
        json.dumps(make_inputs("sweep-pool", 1, "tiny")))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def child(role: str, *extra: str) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), role, "--workload",
               "sweep-pool", "--inputs", str(work / "inputs.json"),
               "--work", str(work), *extra]
        out = subprocess.run(cmd, env=env, text=True, capture_output=True,
                             check=True, timeout=120).stdout
        return json.loads(out.strip().splitlines()[-1])

    ref = child("reference")
    ref["calls"][0]["outputs"][0] += " tampered"
    (work / "reference.json").write_text(json.dumps(ref))
    out = child("measure", "--ref", str(work / "reference.json"),
                "--seconds", "0.5")
    assert out["end_to_end"]["failed"] >= 1
    assert out["problems"]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("ring-steady", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
