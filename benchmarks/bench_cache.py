"""EXP-CACHE — the content-addressed run cache: cold vs warm sweeps.

The incremental-sweep claim of :mod:`repro.cache` is purely about wall
time: a warm re-run of an unchanged exploration answers every job from
its content-addressed key instead of executing the simulation, and the
report is byte-identical.  This bench pins both halves on the paper's
ring (the Fig. 2 scenario, explored exhaustively in its fault-tolerant
marker variant):

* ``bench_explore_cache_cold`` — every round sweeps into a **fresh**
  cache directory: full simulation cost plus key/store overhead (the
  honest price of turning the cache on for the first time);
* ``bench_explore_cache_warm`` — the directory is pre-populated once,
  every timed round is all hits.  The bench asserts the warm report
  equals the cold one and, when the cold series ran in the same
  session, that warm is at least **5x** faster.

The campaign-scale series, ``bench_cache_lookup_sqlite``, warm-looks
up a synthetic store of 10^4 entries via one ``get_many`` per round and
gates the lookup two ways:

* **work counts** (``bench_cache_lookup_work``) — one ``get_many`` of
  10^4 keys issues exactly ⌈10^4/500⌉ = 20 ``SELECT`` statements
  (counted with ``Connection.set_trace_callback``) and exactly one
  ``json.loads`` for the whole batch of payloads;
* **wall clock** — the best lookup must stay under
  :data:`LOOKUP_CEILING_LOOPS` runs of a fixed pure-Python loop (the
  host-speed yardstick ``perfbench/child.py`` calibrates with).  The
  lookup is timed in a fresh interpreter, interleaved with the loop,
  best-of-N, with the cyclic collector quiesced, so neither host-load
  drift between two timings nor the state of a full test session
  enters the figure.

All series land in ``BENCH_simperf.json`` with their ``cache_*``
counter deltas (see ``conftest.timed``), so the trajectory file records
the hit/miss traffic alongside the wall times.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest

from repro.analysis import ascii_table
from repro.cache import RunCache
from repro.cache import store as store_module
from repro.faults import explore
from repro.parallel import RingScenario, StandardRingInvariants
from conftest import _PERF, emit, timed

# The Fig. 2 ring, in the fault-tolerant marker variant the sweep
# engine exists to interrogate (the baseline variant aborts on the
# first kill, which would make most windows trivially identical).
N = 8
ITERS = 10
SCENARIO = RingScenario(nprocs=N, iters=ITERS)
INVARIANTS = StandardRingInvariants(ITERS, N)
SPEEDUP_FLOOR = 5.0


def _explore(cache_dir: Path):
    return explore(
        SCENARIO,
        invariants=INVARIANTS,
        ranks=list(range(1, N)),
        cache=cache_dir,
    )


def bench_explore_cache_cold(benchmark):
    dirs: list[str] = []
    reports = []

    def run_cold():
        # A fresh directory per round: every job misses and stores.
        d = tempfile.mkdtemp(prefix="repro-bench-cache-")
        dirs.append(d)
        reports.append(_explore(Path(d)))
        return reports[-1]

    try:
        timed(benchmark, run_cold)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    s = reports[-1].summary()
    emit(
        f"run-cache cold sweep (fig2 ring, n={N}, {ITERS} iterations)",
        ascii_table(
            ["windows", "runs", "ok", "hangs", "violations"],
            [[s["windows"], s["runs"], s["ok"], s["hangs"], s["violations"]]],
        ),
    )
    assert s["ok"] == s["runs"] > 0  # the marker ring survives every window


def bench_explore_cache_warm(benchmark):
    d = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        populate = _explore(Path(d))  # untimed cold pass fills the store
        reports = []

        def run_warm():
            reports.append(_explore(Path(d)))
            return reports[-1]

        timed(benchmark, run_warm)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    warm = reports[-1]
    assert warm.format() == populate.format()  # byte-identical report
    rows = [["warm", f"{min(_PERF['bench_explore_cache_warm']):.4f}", "-"]]
    cold_series = _PERF.get("bench_explore_cache_cold")
    if cold_series:
        cold_s = min(cold_series)
        warm_s = min(_PERF["bench_explore_cache_warm"])
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        rows.insert(0, ["cold", f"{cold_s:.4f}", "-"])
        rows[-1][-1] = f"{speedup:.1f}x"
        assert speedup >= SPEEDUP_FLOOR, (
            f"warm sweep only {speedup:.1f}x faster than cold "
            f"(floor: {SPEEDUP_FLOOR}x)"
        )
    emit(
        "run-cache warm sweep (same store, all hits)",
        ascii_table(["mode", "min wall s", "speedup"], rows),
    )


# ---------------------------------------------------------------------------
# Warm lookups at campaign scale
# ---------------------------------------------------------------------------

LOOKUP_ENTRIES = 10_000
#: Ceiling on one warm ``get_many`` of LOOKUP_ENTRIES keys, in runs of
#: :func:`_yardstick`: a fifth of what the retired sharded-JSON store
#: took (3.6-4.8 loop runs, fresh interpreters, best of 9-11, on a
#: 2-vCPU VM), so the gate is no weaker than the old "SQLite at least
#: 5x faster than JSON" ratio.
LOOKUP_CEILING_LOOPS = 3.8
LOOKUP_ROUNDS = 9


def _yardstick() -> float:
    """Seconds for one run of the fixed pure-Python loop that
    ``perfbench/child.py`` calibrates host speed with."""
    t = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i
    return time.perf_counter() - t


def _fill_store(root: Path) -> tuple[RunCache, list[str]]:
    """10^4 entries with campaign-shaped payloads, stored untimed."""
    cache = RunCache(root)
    keys = [f"{i:064x}" for i in range(LOOKUP_ENTRIES)]
    cache.put_many(
        (
            key,
            {"hung": False, "violations": [], "digest": key[:16], "seed": i},
            ("bench-entry", i),
        )
        for i, key in enumerate(keys)
    )
    return cache, keys


def _measure_lookup() -> dict[str, float]:
    """Best warm lookup and best yardstick loop, interleaved, with the
    cyclic collector off.  Runs in a fresh interpreter (see
    :func:`bench_cache_lookup_sqlite`), as the ceiling was calibrated."""
    d = tempfile.mkdtemp(prefix="repro-bench-lookup-")
    try:
        cache, keys = _fill_store(Path(d))
        cache.get_many(keys)
        best_loop = best_lookup = float("inf")
        gc.collect()
        gc.disable()
        try:
            for _ in range(LOOKUP_ROUNDS):
                best_loop = min(best_loop, _yardstick())
                t0 = time.perf_counter()
                got = cache.get_many(keys)
                best_lookup = min(best_lookup, time.perf_counter() - t0)
        finally:
            gc.enable()
        assert all(status == "hit" for status, _ in got)
        return {"lookup_s": best_lookup, "loop_s": best_loop}
    finally:
        shutil.rmtree(d, ignore_errors=True)


@pytest.fixture(scope="module")
def lookup_store():
    d = tempfile.mkdtemp(prefix="repro-bench-lookup-")
    yield _fill_store(Path(d))
    shutil.rmtree(d, ignore_errors=True)


def bench_cache_lookup_work(lookup_store, monkeypatch):
    cache, keys = lookup_store
    loads = []

    def counting_loads(text, *args, **kwargs):
        loads.append(len(text))
        return json.loads(text, *args, **kwargs)

    monkeypatch.setattr(
        store_module, "json",
        types.SimpleNamespace(loads=counting_loads, dumps=json.dumps),
    )
    statements: list[str] = []
    conn = cache.store._conn()
    conn.set_trace_callback(statements.append)
    try:
        got = cache.get_many(keys)
    finally:
        conn.set_trace_callback(None)
    assert all(status == "hit" for status, _ in got)
    selects = [s for s in statements if s.lstrip().upper().startswith("SELECT")]
    assert len(selects) == math.ceil(LOOKUP_ENTRIES / 500) == 20
    assert len(loads) == 1


def bench_cache_lookup_sqlite(benchmark, lookup_store):
    cache, keys = lookup_store

    def lookup():
        got = cache.get_many(keys)
        assert all(status == "hit" for status, _ in got)
        return got

    timed(benchmark, lookup)
    # The wall gate runs in a fresh interpreter, as its ceiling was
    # calibrated, so nothing earlier tests left in this process (heap,
    # threads, open stores) can move it.
    here = Path(__file__).resolve().parent
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys; sys.path.insert(0, {str(here)!r}); "
         "import bench_cache; "
         "print(json.dumps(bench_cache._measure_lookup()))"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    measured = json.loads(probe.stdout.strip().splitlines()[-1])
    best_lookup, best_loop = measured["lookup_s"], measured["loop_s"]
    loops = best_lookup / best_loop
    emit(
        f"run-cache warm lookup ({LOOKUP_ENTRIES} entries, one get_many; "
        f"interleaved best-of-{LOOKUP_ROUNDS})",
        ascii_table(
            ["lookup ms", "per key us", "yardstick ms", "loop runs", "ceiling"],
            [[f"{best_lookup * 1e3:.1f}",
              f"{best_lookup / LOOKUP_ENTRIES * 1e6:.2f}",
              f"{best_loop * 1e3:.1f}", f"{loops:.2f}",
              f"{LOOKUP_CEILING_LOOPS}"]],
        ),
    )
    assert loops <= LOOKUP_CEILING_LOOPS, (
        f"warm lookup of {LOOKUP_ENTRIES} keys took {loops:.2f} yardstick "
        f"loops (ceiling {LOOKUP_CEILING_LOOPS}; best {best_lookup * 1e3:.1f}"
        f"ms against a {best_loop * 1e3:.1f}ms loop)"
    )
