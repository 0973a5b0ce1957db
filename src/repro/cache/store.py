"""On-disk content-addressed store for classified sweep outcomes.

One SQLite database at ``root/cache.sqlite`` in WAL mode, one table
keyed by job key (:class:`SqliteStore`).  Each row holds the entry the
job produced: the classified outcome payload from ``cache_payload()`` —
violations, hang/abort flags, digests, perf counters minus ``wall_s``,
final virtual time — never a raw ``SimulationResult`` (traces are
large, and pickled kernel state would rot across versions), plus a
base64-pickled copy of the job itself, which is what lets ``repro cache
verify`` re-execute a sample of entries and diff the stored payload
against a fresh run field by field.

What the database buys over one file per entry:

* **Batched lookups** — ``get_many`` is chunked ``SELECT … WHERE key
  IN (…)`` statements that read the payload *column* (never the job
  pickle), classify every key in one pass, and decode all hit payloads
  with a single ``json.loads`` (measured in
  ``benchmarks/bench_cache.py``).
* **Batched stores** — ``write_many`` is a single transaction around
  ``executemany``, amortizing the commit.
* **Concurrent writers** — WAL mode lets the serial runner, pool
  parents, remote workers and ``repro cache gc`` interleave;
  ``busy_timeout`` turns short lock contention into a wait instead of
  an error, and a writer killed mid-transaction leaves the previous
  committed state behind.

``sqlite3`` is imported on first use, so importing the package (and the
CLI) does not load it.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from ..obs import registry as _metrics
from ..obs.spans import active as _spans_active
from .keys import KEY_FORMAT, job_key

__all__ = [
    "CORRUPT",
    "DB_FILENAME",
    "RunCache",
    "SqliteStore",
    "VerifyResult",
    "default_cache_dir",
    "diff_payload",
]

#: Sentinel returned by :meth:`SqliteStore.read` for an entry that
#: exists but cannot be parsed — distinct from ``None`` (no entry at
#: all) so maintenance can treat it as stale rather than absent.
CORRUPT: Any = object()

#: Database filename under the cache root.
DB_FILENAME = "cache.sqlite"

#: Max keys per ``IN (…)`` clause — comfortably under SQLite's default
#: 32766 bound-parameter limit while keeping statements cacheable.
_SELECT_CHUNK = 500

_SCHEMA = """\
CREATE TABLE IF NOT EXISTS entries (
    key       TEXT PRIMARY KEY,
    format    TEXT NOT NULL,
    stored_at REAL NOT NULL,
    payload   TEXT NOT NULL,
    data      TEXT NOT NULL
) WITHOUT ROWID
"""

_INSERT = (
    "INSERT OR REPLACE INTO entries"
    " (key, format, stored_at, payload, data) VALUES (?, ?, ?, ?, ?)"
)

#: Shared lookup results for keys without a usable payload.
_MISS = ("miss", None)
_STALE = ("stale", None)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/runs``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "runs"


def diff_payload(
    stored: dict[str, Any], fresh: dict[str, Any]
) -> list[str]:
    """Field-by-field differences between two outcome payloads.

    Returns human-readable ``field: stored != fresh`` lines; empty means
    the payloads agree.  Comparison happens after a JSON round-trip of
    the fresh side so types match what the store serialized (tuples
    become lists, etc.).
    """
    fresh = json.loads(json.dumps(fresh))
    diffs = []
    for name in sorted(set(stored) | set(fresh)):
        if name not in stored:
            diffs.append(f"{name}: missing from stored entry")
        elif name not in fresh:
            diffs.append(f"{name}: missing from fresh run")
        elif stored[name] != fresh[name]:
            diffs.append(f"{name}: stored {stored[name]!r} != fresh {fresh[name]!r}")
    return diffs


@dataclass
class VerifyResult:
    """Outcome of re-executing one cached entry (``repro cache verify``)."""

    key: str
    job_label: str
    ok: bool
    #: ``field: stored != fresh`` lines when the payload disagrees.
    diffs: list[str] = field(default_factory=list)
    #: Set when the entry could not be re-executed at all.
    error: str | None = None

    def format(self) -> str:
        head = f"{'OK  ' if self.ok else 'FAIL'} {self.key[:12]}  {self.job_label}"
        if self.error:
            return f"{head}\n      {self.error}"
        return "\n".join([head] + [f"      {d}" for d in self.diffs])


# ----------------------------------------------------------------------
# The database
# ----------------------------------------------------------------------


class SqliteStore:
    """Run-cache entries in a single WAL-mode SQLite database.

    An *entry* is the JSON-able dict built by :meth:`RunCache._make_entry`
    (``format``/``key``/``stored_at``/``job_type``/``job_pickle``/
    ``payload``).  A row keeps the whole entry in ``data`` and copies
    its ``format`` and ``payload`` into their own columns, which is all
    a lookup reads.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.path = self.root / DB_FILENAME
        # sqlite3 connections are not shareable across threads/forked
        # children; keep one per thread and re-open lazily after fork.
        self._local = threading.local()

    def _conn(self) -> "sqlite3.Connection":  # noqa: F821 - lazy import
        conn = getattr(self._local, "conn", None)
        if conn is not None and self._local.pid == os.getpid():
            return conn
        import sqlite3

        self.root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        with conn:
            conn.execute(_SCHEMA)
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    # -- lookups ----------------------------------------------------------

    def get_many(
        self, keys: Sequence[str]
    ) -> list[tuple[str, dict[str, Any] | None]]:
        """Classify every key in one pass: ``(status, payload)`` each.

        ``"hit"`` carries the decoded payload; ``"miss"`` means no row;
        ``"stale"`` means a row from another key format or one whose
        payload does not decode to a dict.  Only the ``payload`` column
        of current-format rows is read, and all of them are decoded by
        one ``json.loads``.
        """
        if not keys:
            return []
        conn = self._conn()
        # key -> payload text, or None for a row of another key format.
        found: dict[str, str | None] = {}
        for start in range(0, len(keys), _SELECT_CHUNK):
            chunk = keys[start : start + _SELECT_CHUNK]
            found.update(conn.execute(
                "SELECT key, CASE format WHEN ? THEN payload END"
                f" FROM entries WHERE key IN ({','.join('?' * len(chunk))})",
                (KEY_FORMAT, *chunk),
            ))
        stale = []
        if None in found.values():
            stale = [k for k, text in found.items() if text is None]
            for k in stale:
                del found[k]
        values = _parse_payloads(list(found.values()))
        out = dict(zip(found, zip(repeat("hit"), values)))
        if not all(map(isinstance, values, repeat(dict))):
            stale += [k for k, v in zip(found, values) if not isinstance(v, dict)]
        out.update(dict.fromkeys(stale, _STALE))
        return list(map(out.get, keys, repeat(_MISS)))

    def read(self, key: str) -> dict[str, Any] | None:
        """The full entry, ``None`` when absent, :data:`CORRUPT` when
        present but unparseable."""
        row = self._conn().execute(
            "SELECT data FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            entry = json.loads(row[0])
        except ValueError:
            return CORRUPT
        return entry if isinstance(entry, dict) else CORRUPT

    def keys(self) -> Iterator[str]:
        """Every stored key, in sorted order."""
        if not self.path.exists():
            return iter(())
        rows = self._conn().execute(
            "SELECT key FROM entries ORDER BY key"
        ).fetchall()
        return iter([r[0] for r in rows])

    def size_bytes(self) -> int:
        """On-disk footprint; WAL mode spreads live data over
        ``cache.sqlite{,-wal,-shm}``."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += Path(str(self.path) + suffix).stat().st_size
            except OSError:
                continue
        return total

    # -- writes -----------------------------------------------------------

    def write_many(self, items: Iterable[tuple[str, dict[str, Any]]]) -> None:
        """Store every ``(key, entry)`` in one transaction."""
        conn = self._conn()
        with conn:
            conn.executemany(
                _INSERT, (self._row(key, entry) for key, entry in items)
            )

    def delete_many(self, keys: Sequence[str]) -> None:
        if not keys:
            return
        conn = self._conn()
        with conn:
            conn.executemany(
                "DELETE FROM entries WHERE key = ?", [(k,) for k in keys]
            )

    @staticmethod
    def _row(
        key: str, entry: dict[str, Any]
    ) -> tuple[str, str, float, str, str]:
        stored = entry.get("stored_at")
        return (
            key,
            str(entry.get("format", "")),
            float(stored) if isinstance(stored, (int, float)) else 0.0,
            json.dumps(entry.get("payload"), sort_keys=True),
            json.dumps(entry, sort_keys=True),
        )


def _parse_payloads(texts: list[str]) -> list[Any]:
    """Parse many payload JSON strings with **one** ``json.loads``.

    Joining into a single array and parsing once stays in the C decoder
    for the whole batch — per-call overhead is most of the cost of 10^4
    tiny parses.  Any corrupt row poisons the joined parse, so fall back
    to per-entry parsing (returning ``CORRUPT`` sentinels for the bad
    ones) only on that rare path.
    """
    try:
        return json.loads(f"[{','.join(texts)}]") if texts else []
    except ValueError:
        out: list[Any] = []
        for text in texts:
            try:
                out.append(json.loads(text))
            except ValueError:
                out.append(CORRUPT)
        return out


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------


class RunCache:
    """A content-addressed store of classified sweep outcomes."""

    #: Storage engine name, as reported by ``repro cache stats``.
    backend = "sqlite"

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.store = SqliteStore(self.root)

    @classmethod
    def at(cls, where: "RunCache | Path | str | bool | None") -> "RunCache":
        """Coerce a path-ish argument to a cache (``None``/``True`` →
        the default directory; see :func:`default_cache_dir`)."""
        if isinstance(where, RunCache):
            return where
        if where is None or where is True:
            return cls(default_cache_dir())
        return cls(Path(where))

    # -- read side ----------------------------------------------------

    def get_many(
        self, keys: Sequence[str]
    ) -> list[tuple[str, dict[str, Any] | None]]:
        """Look up every key: one ``(status, payload)`` per key, in
        order, from ⌈len/500⌉ ``SELECT`` statements — what the sweep
        pipeline issues per chunk instead of one read per job.

        *status* is ``"hit"`` (payload usable), ``"miss"`` (no entry),
        or ``"stale"`` (an entry exists but is corrupt or from another
        key-format version — callers re-execute and overwrite it).
        """
        recorder = _spans_active()
        if recorder is None:
            classified = self.store.get_many(keys)
            counts = Counter(map(itemgetter(0), classified))
        else:
            with recorder.span(
                "cache.get_many", "cache", attrs={"keys": len(keys)}
            ) as span:
                classified = self.store.get_many(keys)
                counts = Counter(map(itemgetter(0), classified))
                span.attrs["hits"] = counts["hit"]
        for status, count in counts.items():
            _metrics.CACHE_LOOKUPS.inc(count, result=status)
        return classified

    def keys(self) -> Iterator[str]:
        """Every key currently stored, sorted."""
        return self.store.keys()

    def entry(self, key: str) -> dict[str, Any] | None:
        """The full raw entry (metadata included), or ``None``."""
        e = self.store.read(key)
        return None if e is None or e is CORRUPT else e

    # -- write side ---------------------------------------------------

    @staticmethod
    def _make_entry(key: str, payload: dict[str, Any], job: Any) -> dict[str, Any]:
        """One stored entry.

        The job is pickled alongside (base64) so ``verify`` can later
        re-execute the entry without reconstructing its spec by hand.
        """
        return {
            "format": KEY_FORMAT,
            "key": key,
            "stored_at": time.time(),
            "job_type": f"{type(job).__module__}.{type(job).__qualname__}",
            "job_pickle": base64.b64encode(
                pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
            "payload": payload,
        }

    def put_many(
        self, items: Iterable[tuple[str, dict[str, Any], Any]]
    ) -> None:
        """Store every ``(key, payload, job)`` of *items* in one
        transaction."""
        count = 0

        def _entries() -> Iterator[tuple[str, dict[str, Any]]]:
            nonlocal count
            for key, payload, job in items:
                count += 1
                yield key, self._make_entry(key, payload, job)

        recorder = _spans_active()
        if recorder is None:
            self.store.write_many(_entries())
        else:
            with recorder.span("cache.put_many", "cache") as span:
                self.store.write_many(_entries())
                span.attrs["stores"] = count
        if count:
            _metrics.CACHE_STORES.inc(count)

    # -- maintenance --------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Backend, entry count, and disk footprint (``repro cache stats``)."""
        entries = 0
        oldest: float | None = None
        newest: float | None = None
        for key in self.keys():
            entry = self.entry(key)
            entries += 1
            stored = entry.get("stored_at") if entry else None
            if not isinstance(stored, (int, float)):
                continue
            oldest = stored if oldest is None else min(oldest, stored)
            newest = stored if newest is None else max(newest, stored)
        return {
            "root": str(self.root),
            "backend": self.backend,
            "format": KEY_FORMAT,
            "entries": entries,
            "total_bytes": self.store.size_bytes(),
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def gc(self, *, max_age_s: float | None = None) -> dict[str, int]:
        """Drop stale-format entries, and (optionally) entries older than
        *max_age_s* seconds; returns removal counts."""
        removed_stale = 0
        removed_old = 0
        now = time.time()
        doomed: list[str] = []
        for key in list(self.keys()):
            entry = self.store.read(key)
            if (
                entry is None
                or entry is CORRUPT
                or entry.get("format") != KEY_FORMAT
            ):
                doomed.append(key)
                removed_stale += 1
                continue
            if max_age_s is not None:
                stored = entry.get("stored_at")
                if not isinstance(stored, (int, float)) or (
                    now - stored > max_age_s
                ):
                    doomed.append(key)
                    removed_old += 1
        self.store.delete_many(doomed)
        return {"removed_stale": removed_stale, "removed_old": removed_old}

    def verify(
        self, *, sample: int | None = None, seed: int = 0
    ) -> list[VerifyResult]:
        """Re-execute (a sample of) stored entries and diff the payloads.

        For each selected entry: unpickle the stored job, recompute its
        key (a mismatch means *key drift* — the key no longer covers the
        job, or the code version/mutation salt changed under it), run the
        job fresh via ``cache_payload()``, and compare payloads with
        :func:`diff_payload`.  Hung/failing entries come back with
        ``ok=False`` rather than raising, so one bad entry cannot hide
        the rest.
        """
        keys = list(self.keys())
        if sample is not None and sample < len(keys):
            keys = random.Random(seed).sample(keys, sample)
        results: list[VerifyResult] = []
        for key in keys:
            results.append(self._verify_one(key))
        return results

    def _verify_one(self, key: str) -> VerifyResult:
        entry = self.entry(key)
        if entry is None:
            return VerifyResult(key, "?", False, error="unreadable entry")
        label = entry.get("job_type", "?")
        if entry.get("format") != KEY_FORMAT:
            return VerifyResult(
                key, label, False,
                error=f"format {entry.get('format')!r} != {KEY_FORMAT!r}",
            )
        try:
            job = pickle.loads(base64.b64decode(entry["job_pickle"]))
        except Exception as exc:  # noqa: BLE001 - any unpickle failure
            return VerifyResult(key, label, False, error=f"unpicklable job: {exc}")
        recomputed = job_key(job)
        if recomputed != key:
            return VerifyResult(
                key, label, False,
                error=(
                    "key drift: stored under "
                    f"{key[:12]}… but recomputes to "
                    f"{(recomputed or 'None')[:12]}…"
                ),
            )
        try:
            _, fresh = job.cache_payload()
        except Exception as exc:  # noqa: BLE001 - job execution failed
            return VerifyResult(key, label, False, error=f"re-execution failed: {exc}")
        diffs = diff_payload(entry.get("payload", {}), fresh)
        return VerifyResult(key, label, not diffs, diffs=diffs)
