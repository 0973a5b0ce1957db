"""Benchmark of the repro package: four closed-loop workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ring-steady --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from ``--seed``, computes a
serial, uncached reference in a fresh interpreter, takes ``setup_s``
samples from fresh interpreters, and then drives the workload for
``--seconds`` in another fresh interpreter, checking every report
against the reference.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` interleaves traced and untraced calls
and reports per-layer self times and metrics (see ``tracer.py``).  The
workloads and why each was chosen are recorded in ``BENCHMARK.json``.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The command exits 1 when any output check fails, and 2 without a
result when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workloads import NAMES, SIZES, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Fresh interpreters timed per run for the ``setup_s`` median, before
#: and after the measured loop, so that one slow spell of the host does
#: not cover every sample.
SETUP_PROBES = (3, 2)

#: End-to-end metrics (``--trace 0``), in table order.
END_TO_END = (
    ("runs_per_s", "1/s"),
    ("sweep_ms_p50", "ms"),
    ("sweep_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


#: Which end-to-end metric, on which workload, each per-layer metric
#: should move (the prediction a perf change states before it lands).
SHOULD_MOVE = {
    "simmpi.runs": "- (count)",
    "simmpi.run_ms.p50": "runs_per_s on ring-steady, protocols-serial",
    "simmpi.run_ms.p99": "runs_per_s on ring-steady, protocols-serial",
    "simmpi.handoffs_per_run": "exact; must not move for a host-only change",
    "simmpi.events_per_run": "exact; must not move for a host-only change",
    "simmpi.messages_per_run": "exact; must not move for a host-only change",
    "simmpi.us_per_handoff": "runs_per_s on ring-steady",
    "simmpi.fiber_wait_frac": "runs_per_s on ring-steady",
    "simmpi.loop_self_frac": "runs_per_s on protocols-serial",
    "ft.calls_per_run": "- (count)",
    "ft.self_ms_per_run": "runs_per_s on protocols-serial, campaign-rerun; ~0 on ring-steady",
    "analysis.digest_ms_per_miss": "runs_per_s on campaign-rerun",
    "analysis.invariants_ms_per_run": "runs_per_s on campaign-rerun, sweep-pool",
    "cache.hit_frac": "exact; fixed by the workload",
    "cache.stale": "exact; must be 0",
    "cache.key_us_per_job": "runs_per_s on campaign-rerun only",
    "cache.lookup_us_per_key": "runs_per_s on campaign-rerun only",
    "cache.store_us_per_key": "runs_per_s on campaign-rerun only",
    "parallel.open_ms_per_sweep": "sweep_ms_p50/p90, runs_per_s on sweep-pool only",
    "parallel.submit_ms_per_sweep": "sweep_ms_p50/p90, runs_per_s on sweep-pool only",
    "parallel.wait_ms_per_sweep": "sweep_ms_p50/p90, runs_per_s on sweep-pool only",
    "parallel.close_ms_per_sweep": "sweep_ms_p50/p90, runs_per_s on sweep-pool only",
    "parallel.chunks_per_sweep": "sweep_ms_p50/p90, runs_per_s on sweep-pool only",
    "parallel.chunk_retries": "sweep_ms_p50/p90, runs_per_s on sweep-pool only",
    "parallel.overhead_ms_per_sweep": "sweep_ms_p50/p90, runs_per_s on sweep-pool only",
    "setup.import_s": "setup_s on all",
    "setup.runner_s": "setup_s on all",
    "trace.overhead_frac": "- (benchmark)",
}


class BenchError(RuntimeError):
    """A benchmark process failed; the run has no result."""


def _child(role: str, workload: str, work: Path, extra: list[str],
           timeout: float) -> dict[str, Any]:
    """Run ``child.py <role>`` in a fresh interpreter; return its JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), role,
           "--workload", workload, "--inputs", str(work / "inputs.json"),
           "--work", str(work), "--t-spawn", repr(t_spawn), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {timeout:.0f} s"
    finally:
        # The child's session holds any pool workers it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{role} process failed ({proc.returncode}): "
                         f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _probe(workload: str, work: Path) -> float:
    """One ``setup_s`` sample from a fresh interpreter."""
    return _child("probe", workload, work, [], timeout=60)["setup_s"]


def _git() -> dict[str, Any]:
    """Revision and dirty flag of the checkout, if it is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=30)

    try:
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": "unknown", "dirty": None}
    if rev.returncode or status.returncode:
        return {"revision": "unknown", "dirty": None}
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run(args: argparse.Namespace) -> dict[str, Any]:
    """One benchmark run: reference, set-up probes, measured loop."""
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(args.workload, args.seed, args.size)
        (work / "inputs.json").write_text(json.dumps(inputs))
        timing = args.trace and WORKLOADS[args.workload].parallelism > 1
        ref = _child("reference", args.workload, work,
                     ["--timing"] if timing else [], timeout=120)
        (work / "reference.json").write_text(json.dumps(ref))
        before, after = (0, 0) if args.trace else SETUP_PROBES
        setups = [_probe(args.workload, work) for _ in range(before)]
        measured = _child(
            "measure", args.workload, work,
            ["--ref", str(work / "reference.json"), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--spans", str(spans)],
            timeout=args.seconds + 120,
        )
        setups += [_probe(args.workload, work) for _ in range(after)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured["setup_samples"] = setups
    measured["spans_file"] = str(spans.relative_to(ROOT)) if args.trace else None
    return measured


def _table(rows: list[tuple[str, str, str, str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return "\n".join(
        f"  {a:<{widths[0]}}  {b:>{widths[1]}}  {c:<{widths[2]}}  {d}".rstrip()
        for a, b, c, d in rows
    )


def report(args: argparse.Namespace, m: dict[str, Any]) -> dict[str, Any]:
    """Print the tables; return the result object."""
    e2e = m["end_to_end"]
    traced = m.get("traced", {"jobs": 0, "failed": 0})
    attempted = e2e["jobs"] + traced["jobs"]
    failed = e2e["failed"] + traced["failed"]
    correct = failed == 0 and not m["problems"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("provenance: " + json.dumps({**m["provenance"], **_git()}))
    for problem in m["problems"]:
        print(f"CHECK FAILED: {problem}")
    setup_s = statistics.median(m["setup_samples"]) if m["setup_samples"] else None
    values = {**e2e, "setup_s": setup_s}
    notes = {
        "runs_per_s": f"median call; {e2e['jobs']} runs in {e2e['calls']} calls",
        "sweep_ms_p50": f"{e2e['calls']} call samples",
        "sweep_ms_p90": f"{e2e['beyond_p90']} samples beyond",
        "setup_s": f"median of {len(m['setup_samples'])} fresh interpreters",
        "peak_rss_mb": "max of process and pool children",
    }
    rows = [("metric", "value", "unit", "")]
    for name, unit in END_TO_END:
        if values[name] is not None:
            rows.append((name, f"{values[name]:.4g}", unit, notes[name]))
    rows.append(("failed_frac", f"{failed / attempted:.4g}", "frac",
                 f"{failed} of {attempted} runs failed a check"))
    print("end-to-end (tracing off)")
    print(_table(rows))
    if not args.trace:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        metrics = m["per_layer"]
        layers = m["layers"]
        wall = layers["wall_ms_per_call"]
        print(f"layers (traced calls; self time per call, wall {wall:.4g} ms)")
        rows = [("layer", "self", "unit", "share of wall")]
        self_ms = layers["self_ms_per_call"]
        for layer, ms in self_ms.items():
            label = "client (benchmark, unattributed)" if layer == "client" else layer
            rows.append((label, f"{ms:.4g}", "ms", f"{ms / wall:.1%}"))
        named = sum(ms for layer, ms in self_ms.items() if layer != "client")
        rows.append(("named layers", f"{named:.4g}", "ms", f"{named / wall:.1%}"))
        overhead = metrics["trace.overhead_frac"]["value"]
        rows.append(("tracing overhead", f"{overhead:+.1%}", "",
                     "traced vs untraced time per run"))
        print(_table(rows))
        print("per-layer metrics")
        print(_table([("metric", "value", "unit", "should move")] + [
            (name, f"{v['value']:.4g}", v["unit"], SHOULD_MOVE[name])
            for name, v in metrics.items()
        ]))
        print(f"spans: {m['spans_file']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input size; 'tiny' is for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        measured = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(args, measured)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
