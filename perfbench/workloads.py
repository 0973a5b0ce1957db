"""The four benchmark workloads: inputs from a seed, and one API call each.

Every workload is a single client driving the public Python API closed
loop: the next call starts only after the previous report is back.  All
of them run with the program's defaults (fiber backend, cache backend,
materialized sweeps, telemetry and spans off); only the knobs a user
would set on the command line are passed.

:func:`make_inputs` is pure Python and imports nothing from ``repro``,
so the orchestrator can generate inputs before any program code loads.
The workload classes import ``repro`` lazily, inside the fresh
interpreter that runs them.

A workload's *reference* is the same call made serially and uncached
(see :meth:`Workload.reference`); a measured call must reproduce it.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path
from typing import Any

NAMES = ("ring-steady", "protocols-serial", "campaign-rerun", "sweep-pool")

#: Workload sizes: ``full`` is what the benchmark measures; ``tiny`` is
#: for the benchmark's own tests.
SIZES = {
    "full": {
        "ring-steady": {"nprocs": 16, "iters": 50, "inputs": 4},
        "protocols-serial": {"runs": 25, "inputs": 3},
        "campaign-rerun": {"runs": 100},
        "sweep-pool": {"jobs": 20, "inputs": 8},
    },
    "tiny": {
        "ring-steady": {"nprocs": 4, "iters": 3, "inputs": 2},
        "protocols-serial": {"runs": 1, "inputs": 2},
        "campaign-rerun": {"runs": 4},
        "sweep-pool": {"jobs": 4, "inputs": 2},
    },
}


def make_inputs(workload: str, seed: int, size: str = "full") -> dict[str, Any]:
    """The inputs a run of *workload* passes to the program, from *seed*.

    ``calls`` lists one entry per distinct API call; the measured loop
    cycles through them until its time is up.
    """
    rng = random.Random(f"{workload}/{seed}")
    shape = SIZES[size][workload]
    if workload == "ring-steady":
        return {
            "nprocs": shape["nprocs"],
            "iters": shape["iters"],
            "calls": [rng.randrange(2**31) for _ in range(shape["inputs"])],
        }
    if workload == "protocols-serial":
        return {
            "runs": shape["runs"],
            "calls": [rng.randrange(10**6) for _ in range(shape["inputs"])],
        }
    if workload == "campaign-rerun":
        first = rng.randrange(10**6)
        seeds = list(range(first, first + shape["runs"]))
        warm = sorted(rng.sample(seeds, len(seeds) // 2))
        return {"calls": [seeds], "warm": warm}
    if workload == "sweep-pool":
        jobs = shape["jobs"]
        firsts = [rng.randrange(10**6) for _ in range(shape["inputs"])]
        return {"calls": [list(range(f, f + jobs)) for f in firsts]}
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(NAMES)})")


class Workload:
    """One workload as the fresh interpreter sees it.

    Lifecycle in the measured process: :meth:`setup` and
    :meth:`build_runner` (imports and runner construction — the
    ``setup_s`` interval; a run cache is built inside each call, as the
    CLI builds it), then per call
    :meth:`prepare` (untimed harness work), :meth:`call` (timed), and
    :meth:`outputs` (what is compared with the reference).
    """

    #: Processes that execute jobs concurrently.
    parallelism = 1
    #: Name of the traced run's root span around :meth:`call`.
    root_span = "sweep"
    #: Every how many calls the measured loop checks the full outputs.
    full_check_every = 1

    def __init__(self, inputs: dict[str, Any], work: Path) -> None:
        self.inputs = inputs
        self.work = work

    def setup(self) -> None:
        """Import the program and build what a user builds up front."""
        import repro.cli  # noqa: F401  (the CLI's import set)

    def build_runner(self) -> None:
        """Build what every call reuses: the runner, or on ring-steady
        the rank main."""
        from repro.parallel import make_runner

        self.runner = make_runner(self.parallelism)

    def prepare(self, index: int) -> None:
        """Harness work before call *index* (not timed)."""

    def call(self, inp: Any) -> Any:
        raise NotImplementedError

    def jobs(self, inp: Any) -> int:
        """Simulations one call of *inp* completes."""
        raise NotImplementedError

    def outputs(self, report: Any, full: bool = True) -> list[str]:
        """Comparable strings for a report: one per job, then one for the
        whole report.  ``full=False`` may leave out costly trailing ones."""
        raise NotImplementedError

    def reference(self, inp: Any) -> Any:
        """The serial, uncached report for *inp*."""
        return self.call(inp)

    def finish_reference(self, refs: list[dict[str, Any]]) -> None:
        """Reference-process work after the reference calls (fixtures)."""

    def expected_cache(self) -> dict[str, int] | None:
        """Exact run-cache counter deltas of one call (``None``: unchecked)."""
        return None

    def cache_backend(self) -> str:
        return "off"


class RingSteady(Workload):
    """Back-to-back fault-free rings, trace on, no termination protocol."""

    root_span = "call"
    #: The trace digest costs about a third of a run, so it is compared on
    #: every fourth call; rank reports, final virtual time and the exact
    #: kernel counters are compared on every call.
    full_check_every = 4

    def build_runner(self) -> None:
        from repro.core import RingConfig, Termination, make_ring_main

        self.main = make_ring_main(
            RingConfig(max_iter=self.inputs["iters"],
                       termination=Termination.NONE)
        )

    def call(self, sim_seed: int) -> Any:
        from repro.simmpi import Simulation

        sim = Simulation(nprocs=self.inputs["nprocs"], seed=sim_seed)
        return sim.run(self.main)

    def jobs(self, inp: Any) -> int:
        return 1

    def outputs(self, result: Any, full: bool = True) -> list[str]:
        from repro.analysis.digest import result_digest

        values = [repr(result.value(r)) for r in result.completed_ranks]
        out = [f"{result.final_time!r} " + " ".join(values)]
        if full:
            out.append(result_digest(result))
        return out


class ProtocolsSerial(Workload):
    """``repro compare-protocols`` with the CLI defaults, serial, uncached."""

    def call(self, first_seed: int) -> Any:
        from repro.protocols import run_compare_protocols

        return run_compare_protocols(
            nprocs=6, iters=6, horizon=4e-5, kills_per_run=1, spares=2,
            seeds=range(first_seed, first_seed + self.inputs["runs"]),
            runner=self.runner,
        )

    def jobs(self, inp: Any) -> int:
        from repro.protocols import PROTOCOLS

        return len(PROTOCOLS) * (self.inputs["runs"] + 1)

    def outputs(self, report: Any, full: bool = True) -> list[str]:
        return [repr(r) for r in report.records] + [report.format()]


class _Campaign(Workload):
    """``repro campaign`` with the default ring scenario."""

    nprocs, iters, horizon = 8, 6, 2e-5

    def _run(self, seeds: list[int], runner: Any, cache: Any = None) -> Any:
        from repro.faults import run_campaign
        from repro.parallel import RingScenario, StandardRingInvariants

        return run_campaign(
            RingScenario(nprocs=self.nprocs, iters=self.iters),
            seeds=seeds,
            horizon=self.horizon,
            kills_per_run=1,
            invariants=StandardRingInvariants(self.iters, self.nprocs),
            runner=runner,
            cache=cache,
        )

    def call(self, seeds: list[int]) -> Any:
        return self._run(seeds, self.runner)

    def jobs(self, inp: Any) -> int:
        return len(inp)

    def outputs(self, report: Any, full: bool = True) -> list[str]:
        return [repr(run) for run in report.runs] + [report.format()]


class CampaignRerun(_Campaign):
    """A cached campaign whose store already holds half of its seeds.

    The fixture store (filled by :meth:`finish_reference` outside the
    timed process) is copied afresh before every call, so each call does
    the same warm reads beside cold executions, digests and writes.
    """

    @property
    def fixture(self) -> Path:
        return self.work / "fixture-cache"

    @property
    def store(self) -> Path:
        return self.work / "cache"

    def finish_reference(self, refs: list[dict[str, Any]]) -> None:
        """Fill the fixture store with the warm seeds.  A call (there is
        one input) executes only the cold seeds, so its expected kernel
        counts are the full reference's minus the warm seeds'."""
        from repro import perf

        before = perf.SESSION.snapshot()
        self._run(self.inputs["warm"], self.runner, cache=str(self.fixture))
        warm = perf.SESSION.delta(before)
        counts = refs[0]["counts"]
        for name in counts:
            counts[name] -= warm[name]

    def expected_cache(self) -> dict[str, int]:
        warm = len(self.inputs["warm"])
        cold = len(self.inputs["calls"][0]) - warm
        return {"hits": warm, "misses": cold, "stale": 0, "stores": cold}

    def prepare(self, index: int) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.fixture, self.store)

    def call(self, seeds: list[int]) -> Any:
        return self._run(seeds, self.runner, cache=str(self.store))

    def reference(self, seeds: list[int]) -> Any:
        return super().call(seeds)

    def cache_backend(self) -> str:
        from repro.cache import RunCache

        return RunCache.at(str(self.store)).backend


class SweepPool(_Campaign):
    """Short pooled campaigns of about 20 few-millisecond jobs each."""

    nprocs, iters, horizon = 4, 1, 1e-5
    parallelism = 2

    def reference(self, seeds: list[int]) -> Any:
        from repro.parallel import make_runner

        return self._run(seeds, make_runner(None))


WORKLOADS: dict[str, type[Workload]] = {
    "ring-steady": RingSteady,
    "protocols-serial": ProtocolsSerial,
    "campaign-rerun": CampaignRerun,
    "sweep-pool": SweepPool,
}
