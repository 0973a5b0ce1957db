"""The SQLite run-cache store (:mod:`repro.cache.store`).

This suite pins the store's *contract*: byte-identical warm sweeps
(serial and pooled), sorted key listings, one-pass hit/miss/stale
classification, the full ``stats``/``gc``/``verify`` maintenance
surface, concurrent-writer safety, and crash safety — a writer killed
in the middle of a large ``put_many`` leaves a database that passes
``PRAGMA integrity_check`` and never serves a wrong payload.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import perf
from repro.cache import CachedRunner, RunCache, job_key
from repro.cache.store import CORRUPT, KEY_FORMAT
from repro.cli import main
from repro.faults import run_campaign
from repro.parallel import ProcessPoolRunner
from tests.conftest import RING_INVARIANTS, RING_SCENARIO, corrupt_row

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "cache")


def _campaign(cache=None, runner=None, runs=6):
    return run_campaign(
        RING_SCENARIO,
        seeds=range(runs),
        horizon=2e-5,
        invariants=RING_INVARIANTS,
        cache=cache,
        runner=runner,
    )


def _fill(cache, n=5):
    """Store n synthetic entries; returns their keys (sorted)."""
    jobs = [("probe", i) for i in range(n)]
    keys = [f"{i:02x}" * 32 for i in range(n)]
    cache.put_many(
        (key, {"value": i}, job) for i, (key, job) in enumerate(zip(keys, jobs))
    )
    return sorted(keys)


# ---------------------------------------------------------------------------
# The sweep-facing contract: warm results identical, serial and pooled
# ---------------------------------------------------------------------------


class TestSweepContract:
    def test_cold_warm_byte_identical(self, cache):
        off = _campaign()
        before = perf.CACHE.snapshot()
        cold = _campaign(cache=cache)
        d = perf.CACHE.delta(before)
        assert d["hits"] == 0 and d["misses"] == d["stores"] > 0
        before = perf.CACHE.snapshot()
        warm = _campaign(cache=cache)
        d = perf.CACHE.delta(before)
        assert d["misses"] == d["stores"] == 0 and d["hits"] > 0
        assert off.format() == cold.format() == warm.format()

    def test_warm_pooled_identical(self, cache):
        serial = _campaign(cache=cache)
        pooled = _campaign(
            cache=cache,
            runner=CachedRunner(cache=cache, inner=ProcessPoolRunner(workers=2)),
        )
        assert serial.format() == pooled.format()

    def test_legacy_json_shards_are_misses(self, tmp_path, cache):
        # A directory left by the old one-file-per-entry layout
        # (root/<key[:2]>/<key>.json) is not read: its jobs are
        # recomputed, never served from the shards.
        donor = RunCache(tmp_path / "donor")
        off = _campaign(cache=donor)
        keys = list(donor.keys())
        for key in keys:
            shard = cache.root / key[:2]
            shard.mkdir(parents=True, exist_ok=True)
            (shard / f"{key}.json").write_text(json.dumps(donor.entry(key)))
        assert [s for s, _ in cache.get_many(keys)] == ["miss"] * len(keys)
        before = perf.CACHE.snapshot()
        assert _campaign(cache=cache).format() == off.format()
        assert perf.CACHE.delta(before)["misses"] == len(keys) == 6


# ---------------------------------------------------------------------------
# Store primitives: one-pass classification, sorted keys, stats
# ---------------------------------------------------------------------------


class TestStorePrimitives:
    def test_get_many_preserves_order_and_misses(self, cache):
        keys = _fill(cache)
        probe = [keys[3], "ff" * 32, keys[0]]
        statuses = [s for s, _ in cache.get_many(probe)]
        assert statuses == ["hit", "miss", "hit"]

    def test_get_many_classifies_every_status_in_one_call(self, cache):
        keys = _fill(cache, n=4)
        entry = cache.entry(keys[1])
        cache.store.write_many(
            [(keys[1], {**entry, "format": "repro.cache/0"})]
        )
        corrupt_row(cache, keys[2])
        cache.store.write_many(
            [(keys[3], {**cache.entry(keys[3]), "payload": [3]})]
        )
        probe = keys + ["ee" * 32, keys[0]]
        assert cache.get_many(probe) == [
            ("hit", {"value": 0}),
            ("stale", None),
            ("stale", None),
            ("stale", None),
            ("miss", None),
            ("hit", {"value": 0}),
        ]
        assert [cache.get_many([k])[0] for k in probe] == cache.get_many(probe)

    def test_keys_sorted(self, cache):
        expected = _fill(cache)
        assert list(cache.keys()) == expected

    def test_corrupt_entry_classified_stale(self, cache):
        (key,) = _fill(cache, n=1)
        corrupt_row(cache, key, "not json {")
        assert cache.store.read(key) is CORRUPT
        assert cache.get_many([key]) == [("stale", None)]

    def test_stats(self, cache):
        _fill(cache)
        s = cache.stats()
        assert s["backend"] == "sqlite"
        assert s["format"] == KEY_FORMAT
        assert s["entries"] == 5
        assert s["total_bytes"] > 0
        assert s["oldest_mtime"] <= s["newest_mtime"]


# ---------------------------------------------------------------------------
# Maintenance: gc and verify
# ---------------------------------------------------------------------------


class TestMaintenance:
    def test_gc_drops_stale_format_and_old(self, cache):
        keys = _fill(cache, n=3)
        # Stale format: rewrite one raw entry under an older format tag.
        entry = cache.entry(keys[0])
        entry["format"] = "repro.cache/0"
        cache.store.write_many([(keys[0], entry)])
        # Old entry: push one stored_at into the distant past.
        entry = cache.entry(keys[1])
        entry["stored_at"] = 1.0
        cache.store.write_many([(keys[1], entry)])
        counts = cache.gc(max_age_s=86400.0)
        assert counts == {"removed_stale": 1, "removed_old": 1}
        assert list(cache.keys()) == [keys[2]]

    def test_verify_catches_payload_corruption(self, cache):
        _campaign(cache=cache, runs=2)
        key = next(iter(cache.keys()))
        entry = cache.entry(key)
        entry["payload"]["hung"] = not entry["payload"]["hung"]
        cache.store.write_many([(key, entry)])
        results = {r.key: r for r in cache.verify()}
        assert not results[key].ok
        assert any("hung" in d for d in results[key].diffs)
        assert all(r.ok for k, r in results.items() if k != key)

    def test_verify_catches_key_drift(self, cache):
        _campaign(cache=cache, runs=1)
        key = next(iter(cache.keys()))
        drifted = "ab" * 32
        cache.store.write_many([(drifted, cache.entry(key))])
        bad = [r for r in cache.verify() if r.key == drifted]
        assert len(bad) == 1 and not bad[0].ok
        assert "key drift" in (bad[0].error or "")

    def test_verify_catches_unpicklable_job(self, cache):
        _campaign(cache=cache, runs=1)
        key = next(iter(cache.keys()))
        entry = cache.entry(key)
        entry["job_pickle"] = base64.b64encode(b"junk").decode("ascii")
        cache.store.write_many([(key, entry)])
        (r,) = cache.verify()
        assert not r.ok and "unpicklable" in (r.error or "")


# ---------------------------------------------------------------------------
# Concurrency and crashes: writers may interleave or die, never tear
# ---------------------------------------------------------------------------


class TestConcurrentWriters:
    def test_parallel_put_many_batches(self, cache):
        def writer(wid: int) -> None:
            cache.put_many(
                (f"{wid}{i:01x}" * 32, {"w": wid, "i": i}, ("job", wid, i))
                for i in range(8)
            )

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        keys = list(cache.keys())
        assert len(keys) == 32
        statuses = [s for s, _ in cache.get_many(keys)]
        assert statuses == ["hit"] * 32


#: Child process for the crash test: commit a real campaign, then start
#: one large ``put_many`` and stall inside it (after the batch has
#: spilled uncommitted pages into the WAL) until the parent kills it.
_CRASH_WRITER = """\
import os, sys, time
from repro.cache import RunCache
from repro.faults import run_campaign
from tests.conftest import RING_INVARIANTS, RING_SCENARIO

cache = RunCache(sys.argv[1])
n = int(sys.argv[2])
run_campaign(RING_SCENARIO, seeds=range(3), horizon=2e-5,
             invariants=RING_INVARIANTS, cache=cache)
wal = str(cache.store.path) + "-wal"
committed = os.path.getsize(wal)

def items():
    for i in range(n):
        if i == n - 1:
            print("stalled", committed, os.path.getsize(wal), flush=True)
            time.sleep(120)
        yield f"{i:064x}", {"seed": i}, ("crash-probe", i)

cache.put_many(items())
"""


class TestCrashSafety:
    BATCH = 8000

    def test_sigkill_mid_put_many_leaves_no_wrong_payload(self, tmp_path):
        root = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _CRASH_WRITER, str(root), str(self.BATCH)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            assert ready, "writer never reached the stalled put_many"
            line = proc.stdout.readline().split()
            assert line and line[0] == "stalled", f"writer died: {line!r}"
            # The doomed batch really reached the disk, uncommitted.
            assert int(line[2]) > int(line[1])
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL

        cache = RunCache(root)
        conn = cache.store._conn()
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        survivors = list(cache.keys())
        assert len(survivors) == 3  # only the committed campaign
        probes = [f"{i:064x}" for i in range(self.BATCH)]
        classified = cache.get_many(survivors + probes)
        assert [s for s, _ in classified] == ["hit"] * 3 + ["miss"] * self.BATCH
        for key, (_, payload) in zip(survivors, classified):
            assert payload == cache.entry(key)["payload"]
        results = cache.verify()
        assert len(results) == 3
        assert all(r.ok and not r.diffs for r in results)


# ---------------------------------------------------------------------------
# CLI: stats names the store
# ---------------------------------------------------------------------------


class TestCli:
    def test_stats_names_backend(self, tmp_path, capsys):
        root = tmp_path / "c"
        _fill(RunCache(root), n=2)
        assert main(["cache", "--cache-dir", str(root), "stats"]) == 0
        out = capsys.readouterr().out
        assert "backend:  sqlite" in out
        assert "entries:  2" in out
        assert "bytes" in out


# ---------------------------------------------------------------------------
# Protocol participation in the key surface
# ---------------------------------------------------------------------------


class TestProtocolKeying:
    """``protocol`` is a determinism-relevant spec field: jobs that
    differ only in the recovery family must never share a cache entry —
    a cached RTS outcome served for a shrink/repair run would be a
    silent wrong answer at campaign scale."""

    def _job(self, protocol, **kw):
        from repro.protocols import ProtocolCompareJob

        base = dict(nprocs=5, iters=4, seed=1, horizon=2e-5)
        base.update(kw)
        return ProtocolCompareJob(protocol=protocol, **base)

    def test_protocol_distinguishes_job_keys(self):
        from repro.protocols import PROTOCOLS

        keys = {job_key(self._job(p)) for p in PROTOCOLS}
        assert len(keys) == len(PROTOCOLS)

    def test_ring_scenario_protocol_distinguishes_job_keys(self):
        from repro.faults.campaign import CampaignJob
        from repro.parallel import RingScenario

        def key_for(protocol):
            return job_key(
                CampaignJob(
                    factory=RingScenario(
                        nprocs=5, iters=4, protocol=protocol
                    ),
                    seed=1,
                    horizon=2e-5,
                    kills_per_run=1,
                    eligible_ranks=(1, 2, 3, 4),
                )
            )

        assert key_for("rts") != key_for("shrink_repair")
        # ...while everything else equal still dedups.
        assert key_for("rts") == key_for("rts")

    def test_spares_distinguish_job_keys(self):
        assert job_key(
            self._job("partial_restart", spares=2)
        ) != job_key(self._job("partial_restart", spares=3))

    def test_cached_rts_outcome_not_served_for_other_protocol(self, cache):
        from repro.parallel import make_runner

        runner = CachedRunner(cache=cache, inner=make_runner(None))
        (rts_rec,) = runner.run([self._job("rts")])
        before = perf.CACHE.snapshot()
        (sr_rec,) = runner.run([self._job("shrink_repair")])
        d = perf.CACHE.delta(before)
        assert d["hits"] == 0 and d["misses"] == 1 and d["stores"] == 1
        assert sr_rec.protocol == "shrink_repair"
        assert rts_rec.kills == sr_rec.kills  # same schedule, fresh run
        # And the warm hit goes to the *right* entry.
        before = perf.CACHE.snapshot()
        (again,) = runner.run([self._job("shrink_repair")])
        assert perf.CACHE.delta(before)["hits"] == 1
        assert again == sr_rec


def test_job_key_still_covers_pickled_jobs(tmp_path):
    """Sanity anchor: entries written through the public API recompute
    to their own key (the property `verify` leans on)."""
    cache = RunCache(tmp_path / "c")
    _campaign(cache=cache, runs=2)
    for key in cache.keys():
        entry = cache.entry(key)
        job = pickle.loads(base64.b64decode(entry["job_pickle"]))
        assert job_key(job) == key
