"""EXP-STREAM — the one sweep pipeline: its cost and its boundedness.

Every campaign streams: ``run_campaign`` builds its jobs lazily, pushes
them through ``runner.run_stream`` in bounded windows, and folds each
run into the report as it arrives (``stream=True`` keeps counts and
failures only, so memory stays O(window + failures) however large the
campaign).  Three gates pin that pipeline on a 300-run campaign:

* ``bench_campaign_streamed`` — **wall clock**: the campaign may cost
  at most :data:`OVERHEAD_CEILING` times a bare
  ``[job() for job in jobs]`` loop over the same jobs — the least a
  serial sweep of those jobs can cost.  Both are timed in a fresh
  interpreter, interleaved (alternating which runs first),
  best-of-:data:`WALL_ROUNDS`, with the cyclic collector off while
  timing, so neither host-load drift between two timings nor the state
  of a full test session enters the ratio.
* ``bench_campaign_serial_builds_lazily`` — **work order**: on
  ``SerialRunner`` no job is built before the previous one has run.
* ``bench_campaign_pool_windows_bounded`` — **work counts**: on
  ``ProcessPoolRunner(workers=2)`` with a window of :data:`WINDOW`
  jobs, exactly ⌈300/W⌉ inner ``run()`` calls, and never more than W
  jobs built ahead of the results.

``bench_campaign_streamed`` lands in ``BENCH_simperf.json``;
``REPRO_BENCH_WORKERS`` fans its timed series across a pool.
"""

from __future__ import annotations

import gc
import json
import math
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis import ascii_table
from repro.faults import run_campaign
from repro.faults.campaign import CampaignJob
from repro.parallel import (
    ProcessPoolRunner,
    RingScenario,
    SerialRunner,
    StandardRingInvariants,
)
from conftest import emit, sweep_runner, timed

N = 4
ITERS = 3
RUNS = 300
HORIZON = 2e-5
SCENARIO = RingScenario(nprocs=N, iters=ITERS)
INVARIANTS = StandardRingInvariants(ITERS, N)
#: The streamed campaign may not cost more than this over a bare loop
#: over its jobs (the loop a serial sweep that kept every job and
#: result in a list would run).
OVERHEAD_CEILING = 1.25
#: Even, so each side runs first in half of the rounds.
WALL_ROUNDS = 6
#: In-flight window for the pooled work-count gate: small enough that
#: the 300 runs span several windows.
WINDOW = 64


def _campaign(runner, factory=SCENARIO, seeds=range(RUNS)):
    return run_campaign(
        factory,
        seeds=seeds,
        horizon=HORIZON,
        invariants=INVARIANTS,
        runner=runner,
        stream=True,
    )


def _measure_overhead() -> dict[str, float]:
    """Best streamed campaign and best bare loop over the same jobs,
    interleaved, with the cyclic collector off while timing.  Runs in a
    fresh interpreter (see :func:`bench_campaign_streamed`).

    Each round alternates which side runs first, and the heap is
    collected (untimed) before every call, so neither side always gets
    the fresher heap of a round: with the collector off, the cycles
    each simulation leaves would otherwise slow the second call."""
    jobs = [
        CampaignJob(
            factory=SCENARIO, seed=seed, horizon=HORIZON,
            invariants=INVARIANTS,
        )
        for seed in range(RUNS)
    ]

    def loop() -> None:
        assert len([job() for job in jobs]) == RUNS

    def campaign() -> None:
        assert _campaign(SerialRunner()).summary()["runs"] == RUNS

    sides = {"loop_s": loop, "campaign_s": campaign}
    best = dict.fromkeys(sides, float("inf"))
    gc.disable()
    try:
        for i in range(WALL_ROUNDS):
            for name in sorted(sides, reverse=i % 2 == 1):
                gc.collect()
                t0 = time.perf_counter()
                sides[name]()
                best[name] = min(best[name], time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def bench_campaign_streamed(benchmark):
    reports = []
    timed(benchmark, lambda: reports.append(_campaign(sweep_runner())))
    assert reports[-1].summary()["runs"] == RUNS
    here = Path(__file__).resolve().parent
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys; sys.path.insert(0, {str(here)!r}); "
         "import bench_stream; "
         "print(json.dumps(bench_stream._measure_overhead()))"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    measured = json.loads(probe.stdout.strip().splitlines()[-1])
    campaign_s, loop_s = measured["campaign_s"], measured["loop_s"]
    ratio = campaign_s / loop_s
    emit(
        f"campaign, streamed vs a bare job loop ({RUNS} runs, fig2 ring "
        f"n={N}; interleaved best-of-{WALL_ROUNDS})",
        ascii_table(
            ["campaign s", "bare loop s", "overhead", "ceiling"],
            [[f"{campaign_s:.4f}", f"{loop_s:.4f}", f"{ratio:.3f}x",
              f"{OVERHEAD_CEILING}x"]],
        ),
    )
    assert ratio <= OVERHEAD_CEILING, (
        f"the streamed campaign cost {ratio:.3f}x a bare loop over its "
        f"jobs (ceiling {OVERHEAD_CEILING}x; best {campaign_s:.4f}s "
        f"against {loop_s:.4f}s)"
    )


class _Seeds:
    """The campaign's seeds, logging every seed the driver takes — it
    builds the seed's job right then."""

    def __init__(self, on_take) -> None:
        self.on_take = on_take

    def __len__(self) -> int:
        return RUNS

    def __iter__(self):
        for seed in range(RUNS):
            self.on_take()
            yield seed


class _LoggedScenario:
    """The bench scenario, logging every time a job starts running it."""

    def __init__(self, log: list[str]) -> None:
        self.log = log

    def __call__(self):
        self.log.append("run")
        return SCENARIO()


def bench_campaign_serial_builds_lazily():
    log: list[str] = []
    report = _campaign(
        SerialRunner(),
        factory=_LoggedScenario(log),
        seeds=_Seeds(lambda: log.append("build")),
    )
    assert report.summary()["runs"] == RUNS
    assert log == ["build", "run"] * RUNS


class _WindowedPool(ProcessPoolRunner):
    """A two-worker pool streaming :data:`WINDOW` jobs per window, which
    records the size of every inner ``run()`` batch and how many jobs
    have come back from it."""

    def __init__(self) -> None:
        super().__init__(workers=2)
        self.batches: list[int] = []
        self.done = 0

    def _stream_window(self) -> int:
        return WINDOW

    def run(self, jobs):
        self.batches.append(len(jobs))
        results = super().run(jobs)
        self.done += len(results)
        return results


def bench_campaign_pool_windows_bounded():
    runner = _WindowedPool()
    built = [0]
    ahead = []

    def take() -> None:
        built[0] += 1
        ahead.append(built[0] - runner.done)

    report = _campaign(runner, seeds=_Seeds(take))
    assert report.summary()["runs"] == RUNS
    assert len(runner.batches) == math.ceil(RUNS / WINDOW) == 5
    assert sum(runner.batches) == RUNS
    assert max(ahead) <= WINDOW
