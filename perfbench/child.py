"""The fresh-interpreter side of the benchmark.

``run.py`` starts this script once per role, each time in a new
interpreter with the checkout's ``src`` on ``PYTHONPATH``:

``probe``
    Import the program and build the runner and cache, then report the
    time from the parent's spawn to that point (one ``setup_s`` sample).
``reference``
    Run every input serially and uncached; record each report's outputs,
    the kernel's exact counters, and (``--timing``) a warm serial time.
    Fill the workload's cache fixture, if it has one.
``measure``
    Set up as ``probe`` does, then drive the workload closed loop for
    ``--seconds``, checking every report against the reference.  With
    ``--trace 1`` every other call runs under :mod:`tracer`, so traced
    and untraced calls interleave and the difference is the tracing
    overhead.

Each role prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: Kernel counters that must repeat exactly for the same input.
EXACT_COUNTERS = (
    "handoffs", "events_executed", "events_cancelled", "messages_sent",
    "messages_matched", "messages_unexpected", "messages_dropped",
    "deliveries",
)


def _load(args: argparse.Namespace):
    inputs = json.loads(Path(args.inputs).read_text())
    return WORKLOADS[args.workload](inputs, Path(args.work)), inputs


def _set_up(workload) -> dict[str, float]:
    """Import and build the runner; the clock reads are the set-up split."""
    t0 = time.monotonic()
    workload.setup()
    t1 = time.monotonic()
    workload.build_runner()
    t2 = time.monotonic()
    _check_program_location()
    return {"end": t2, "import_s": t1 - t0, "runner_s": t2 - t1}


def _check_program_location() -> None:
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")


def _counts(before) -> dict[str, int]:
    from repro import perf

    delta = perf.SESSION.delta(before)
    return {name: delta[name] for name in EXACT_COUNTERS}


def _chunks() -> float:
    """Sweep chunks the transport runner has finished or lost so far."""
    from repro.obs import registry

    return (registry.SWEEP_CHUNKS.value(status="done")
            + registry.SWEEP_CHUNKS.value(status="lost"))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(1, math.ceil(q / 100.0 * len(s))) - 1]


# -- probe ---------------------------------------------------------------


def probe(args: argparse.Namespace) -> dict[str, Any]:
    workload, _ = _load(args)
    setup = _set_up(workload)
    return {"setup_s": setup["end"] - args.t_spawn,
            "import_s": setup["import_s"], "runner_s": setup["runner_s"]}


# -- reference -----------------------------------------------------------


def reference(args: argparse.Namespace) -> dict[str, Any]:
    from repro import perf

    workload, inputs = _load(args)
    _set_up(workload)
    refs = []
    for inp in inputs["calls"]:
        before = perf.SESSION.snapshot()
        t = time.perf_counter()
        report = workload.reference(inp)
        seconds = time.perf_counter() - t
        refs.append({"outputs": workload.outputs(report),
                     "counts": _counts(before), "seconds": seconds})
    if args.timing:
        # A second, warm pass: the first call of a process pays lazy
        # imports and allocator growth.
        for ref, inp in zip(refs, inputs["calls"]):
            t = time.perf_counter()
            workload.reference(inp)
            ref["seconds"] = time.perf_counter() - t
    workload.finish_reference(refs)
    return {"calls": refs}


# -- measure -------------------------------------------------------------


class Loop:
    """Per-call records of the measured closed loop."""

    def __init__(self) -> None:
        self.calls: list[dict[str, Any]] = []
        self.problems: list[str] = []

    def stats(self, traced: bool) -> dict[str, Any]:
        calls = [c for c in self.calls if c["traced"] == traced]
        ms = [c["seconds"] * 1e3 for c in calls]
        # Throughput of the median call: one call's rate is its runs over
        # its call-to-report time, and the median resists host hiccups.
        rates = [c["jobs"] / c["seconds"] for c in calls]
        return {
            "calls": len(calls),
            "jobs": sum(c["jobs"] for c in calls),
            "failed": sum(c["failed"] for c in calls),
            "runs_per_s": statistics.median(rates) if rates else 0.0,
            "sweep_ms_p50": statistics.median(ms) if ms else 0.0,
            "sweep_ms_p90": _percentile(ms, 90) if ms else 0.0,
            "beyond_p90": len(ms) - math.ceil(0.9 * len(ms)),
        }


def _check(workload, loop: Loop, k: int, full: bool, jobs: int, ref: dict,
           report: Any, counts: dict | None, cache: dict | None) -> int:
    """Failed jobs of one call: mismatched outputs, or every job when an
    exact counter differs from the reference."""
    got = workload.outputs(report, full)
    want = ref["outputs"] if full else ref["outputs"][:len(got)]
    if len(got) != len(want):
        loop.problems.append(f"call {k}: {len(got)} outputs, expected {len(want)}")
        return jobs
    bad = sum(g != w for g, w in zip(got, want))
    if bad:
        loop.problems.append(f"call {k}: {bad} output(s) differ from the reference")
    if counts is not None and counts != ref["counts"]:
        loop.problems.append(f"call {k}: kernel counts {counts} != {ref['counts']}")
        return jobs
    expected = workload.expected_cache()
    if expected is not None and cache != expected:
        loop.problems.append(f"call {k}: cache counts {cache} != {expected}")
        return jobs
    return min(bad, jobs)


def measure(args: argparse.Namespace) -> dict[str, Any]:
    workload, inputs = _load(args)
    setup = _set_up(workload)
    from repro import perf
    from repro.obs import registry
    from repro.simmpi.fibers import resolve_backend

    refs = json.loads(Path(args.ref).read_text())["calls"]
    backend = resolve_backend()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(backend)
    loop = Loop()
    retries = 0
    deadline = time.monotonic() + args.seconds
    k = 0
    # Every input is called at least once (twice when traced), so the
    # per-input exact counts are always complete.
    min_calls = len(inputs["calls"]) * (2 if tracer else 1)
    while k < min_calls or time.monotonic() < deadline:
        # A traced run makes each input's call twice in a row, untraced
        # then traced, so both halves see the same inputs.
        step = k // 2 if tracer else k
        i = step % len(inputs["calls"])
        inp = inputs["calls"][i]
        traced = tracer is not None and k % 2 == 1
        workload.prepare(k)
        session, cache = perf.SESSION.snapshot(), perf.CACHE.snapshot()
        chunks0 = _chunks()
        retries0 = registry.SWEEP_RETRIES.value()
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
            root = tracer.begin(workload.root_span)
        t = time.perf_counter()
        try:
            report, error = workload.call(inp), None
        except Exception as exc:  # noqa: BLE001 - counted as failed jobs
            report, error = None, f"call {k}: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        if traced:
            tracer.end(root)
            tracer.uninstall()
        counts = _counts(session) if workload.parallelism == 1 else None
        cache_delta = perf.CACHE.delta(cache)
        call_chunks = _chunks() - chunks0
        retries += registry.SWEEP_RETRIES.value() - retries0
        jobs = workload.jobs(inp)
        if error is not None:
            loop.problems.append(error)
            failed = jobs
        else:
            full = step % workload.full_check_every == 0
            failed = _check(workload, loop, k, full, jobs, refs[i], report,
                            counts, cache_delta)
        record = {
            "input": i, "traced": traced, "seconds": seconds, "jobs": jobs,
            "failed": failed, "counts": counts, "cache": cache_delta,
            "chunks": call_chunks,
            "runs": sum(s.name == "sim.run" for s in tracer.spans[first_span:])
            if traced else 0,
        }
        if traced:
            # Tracing must not change what the program does: the exact
            # counters of the traced call equal its untraced twin's.
            twin = loop.calls[-1]
            for key in ("counts", "cache", "chunks"):
                if record[key] != twin[key]:
                    loop.problems.append(
                        f"call {k}: traced {key} {record[key]} != "
                        f"untraced {twin[key]}")
                    record["failed"] = jobs
        loop.calls.append(record)
        report = None
        k += 1
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out: dict[str, Any] = {
        "end_to_end": {**loop.stats(traced=False), "peak_rss_mb": usage / 1024},
        "problems": loop.problems[:20],
        "provenance": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "fibers": backend,
            "cache_backend": workload.cache_backend(),
            "calibration_ms": _calibrate(),
        },
    }
    if tracer is not None:
        out["traced"] = loop.stats(traced=True)
        out["layers"], out["per_layer"] = _per_layer(
            tracer, loop, workload, refs, setup, retries)
        tracer.write(args.spans, {"workload": args.workload,
                                  "provenance": out["provenance"]})
    return out


def _per_layer(tracer, loop: Loop, workload, refs, setup, retries):
    """Self time per layer and the per-layer metrics of the traced calls."""
    traced = [c for c in loop.calls if c["traced"]]
    untraced = [c for c in loop.calls if not c["traced"]]
    sweeps = len(traced)

    def total_ms(name: str) -> float:
        return sum(s.end - s.start for s in tracer.by_name(name)) / 1e6

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    def mean_ms(name: str) -> float:
        spans = tracer.by_name(name)
        return per(sum(s.end - s.start for s in spans) / 1e6, len(spans))

    runs_ns = [s.end - s.start for s in tracer.by_name("sim.run")]
    runs = len(runs_ns)
    # Exact per-run counts come from the first traced call of each input,
    # so they depend on the seed alone, not on how many calls fit.
    firsts = list({c["input"]: c for c in reversed(traced)}.values())
    first_runs = sum(c["runs"] for c in firsts)
    kernel = {name: sum(c["counts"][name] for c in firsts if c["counts"])
              for name in ("handoffs", "events_executed", "messages_sent")}
    lookups = {name: sum(c["cache"][name] for c in traced)
               for name in ("hits", "misses", "stale")}
    run_ns = sum(runs_ns)
    wait_frac = per(tracer.resume[1], run_ns)
    items = {name: sum(s.items for s in tracer.by_name(name))
             for name in ("cache.get_many", "cache.put_many")}
    overhead = 0.0
    if workload.parallelism > 1 and untraced:
        serial_ms = statistics.mean(refs[c["input"]]["seconds"] for c in untraced) * 1e3
        wall_ms = statistics.mean(c["seconds"] for c in untraced) * 1e3
        overhead = wall_ms - serial_ms / workload.parallelism
    t_traced = sum(c["seconds"] for c in traced) / sum(c["jobs"] for c in traced)
    t_untraced = sum(c["seconds"] for c in untraced) / sum(c["jobs"] for c in untraced)
    metrics = {
        "simmpi.runs": (runs, "count"),
        "simmpi.run_ms.p50": (_percentile(runs_ns, 50) / 1e6 if runs else 0.0, "ms"),
        "simmpi.run_ms.p99": (_percentile(runs_ns, 99) / 1e6 if runs else 0.0, "ms"),
        "simmpi.handoffs_per_run": (per(kernel["handoffs"], first_runs), "count"),
        "simmpi.events_per_run": (per(kernel["events_executed"], first_runs), "count"),
        "simmpi.messages_per_run": (per(kernel["messages_sent"], first_runs), "count"),
        "simmpi.us_per_handoff": (
            per(per(run_ns / 1e3, runs), per(kernel["handoffs"], first_runs)), "us"),
        "simmpi.fiber_wait_frac": (wait_frac, "frac"),
        "simmpi.loop_self_frac": (1.0 - wait_frac if runs else 0.0, "frac"),
        "ft.calls_per_run": (per(tracer.ft[0], runs), "count"),
        "ft.self_ms_per_run": (per(tracer.ft[1] / 1e6, runs), "ms"),
        "analysis.digest_ms_per_miss": (mean_ms("digest"), "ms"),
        "analysis.invariants_ms_per_run": (mean_ms("invariants"), "ms"),
        "cache.hit_frac": (per(lookups["hits"], sum(lookups.values())), "frac"),
        "cache.stale": (sum(c["cache"]["stale"] for c in loop.calls), "count"),
        "cache.key_us_per_job": (mean_ms("cache.key") * 1e3, "us"),
        "cache.lookup_us_per_key": (
            per(total_ms("cache.get_many") * 1e3, items["cache.get_many"]), "us"),
        "cache.store_us_per_key": (
            per(total_ms("cache.put_many") * 1e3, items["cache.put_many"]), "us"),
        "parallel.open_ms_per_sweep": (
            per(total_ms("transport.open_round"), sweeps), "ms"),
        "parallel.submit_ms_per_sweep": (per(total_ms("transport.submit"), sweeps), "ms"),
        "parallel.wait_ms_per_sweep": (per(total_ms("transport.wait"), sweeps), "ms"),
        "parallel.close_ms_per_sweep": (per(total_ms("transport.close"), sweeps), "ms"),
        "parallel.chunks_per_sweep": (per(sum(c["chunks"] for c in traced), sweeps), "count"),
        "parallel.chunk_retries": (retries, "count"),
        "parallel.overhead_ms_per_sweep": (overhead, "ms"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.runner_s": (setup["runner_s"], "s"),
        "trace.overhead_frac": (t_traced / t_untraced - 1.0, "frac"),
    }
    wall_ns = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    layers = {"wall_ms_per_call": wall_ns / 1e6 / sweeps, "self_ms_per_call": {
        layer: ns / 1e6 / sweeps for layer, ns in tracer.layer_self_ns().items()}}
    return layers, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _calibrate() -> float:
    """Median ms of a fixed pure-Python loop: a host-speed yardstick."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=["probe", "reference", "measure"])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--t-spawn", type=float, default=0.0)
    p.add_argument("--ref")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans")
    args = p.parse_args(argv)
    role = {"probe": probe, "reference": reference, "measure": measure}[args.role]
    print(json.dumps(role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
