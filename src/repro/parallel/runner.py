"""Sweep runners: execute batches of independent simulation jobs.

A *job* is any picklable zero-argument callable returning a picklable
value (see :mod:`repro.parallel.jobs` for the standard job shapes).  A
:class:`SweepRunner` executes a batch of jobs and returns their results
**in submission order** — never in completion order — so a parallel sweep
is a drop-in replacement for a serial loop: because every job is an
independent deterministic simulation, the merged result list is
bit-identical to what the serial loop would have produced.

Three implementations share the interface:

* :class:`SerialRunner` — runs the jobs in-process, in order.  Zero
  overhead, no picklability requirement; the reference semantics.
* :class:`ProcessPoolRunner` — fans the jobs out over a
  ``concurrent.futures.ProcessPoolExecutor`` with chunked scheduling,
  a per-job wall-clock timeout, and bounded retries for wedged or
  crashed workers.  Jobs (and their results) must be picklable:
  module-level functions or dataclass instances, not bare closures.
* :class:`repro.parallel.remote.RemoteRunner` — the same scheduling
  loop over a fleet of socket workers (``repro worker serve``).

The pooled and remote runners share :class:`TransportRunner`, which
owns the scheduling loop and delegates chunk execution to a pluggable
:class:`repro.parallel.transport.Transport`.

Timeout/retry semantics (documented contract, tested in
``tests/test_parallel.py``):

* ``timeout`` is a per-job budget in wall-clock seconds.  A scheduling
  round is abandoned when its jobs collectively exceed their cumulative
  budget; the unfinished chunks are retried on a fresh pool (wedged
  worker processes are terminated, not awaited).
* each chunk is retried at most ``retries`` times; after that a
  :class:`SweepError` is raised naming the job indices that never
  completed.  A deterministic job that wedges will wedge on every
  attempt — retries exist for infrastructure failures (a worker killed
  by the OS, a broken pool), not to paper over simulation hangs.
* a job that *raises* is an application error, not an infrastructure
  failure: the exception propagates to the caller immediately and is
  never retried (deterministic jobs would fail identically again).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..obs import registry as metrics
from ..obs.spans import SpanRecorder, active as spans_active
from ..obs.telemetry import outcome_class
from .transport import LocalPoolTransport, Transport, run_chunk

#: A sweep job: picklable, zero-argument, returns a picklable result.
SweepJob = Callable[[], Any]

_UNSET = object()


class SweepError(RuntimeError):
    """Jobs could not be completed after exhausting all retries.

    Attributes
    ----------
    indices:
        Submission-order indices of the jobs that never produced a result.
    """

    def __init__(self, message: str, indices: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.indices = list(indices)


#: Default jobs-per-window for :meth:`SweepRunner.run_stream` — big
#: enough to amortize pool IPC and batched cache lookups, small enough
#: that a 10^6-job campaign never holds more than one window of jobs
#: and results in memory.
DEFAULT_STREAM_WINDOW = 1024


class SweepRunner:
    """Executes a batch of independent jobs, results in submission order.

    After :meth:`run` returns, :attr:`job_retries` holds one int per job
    (submission order): how many times the chunk carrying that job was
    re-submitted.  Always zero for serial runs; the telemetry layer
    (:mod:`repro.obs.telemetry`) reads it to attribute infrastructure
    retries to jobs.  It is a per-*instance* list — two runners never
    alias each other's retry accounting (regression-tested).
    """

    def __init__(self) -> None:
        #: Per-job retry counts of the most recent :meth:`run` (see above).
        self.job_retries: list[int] = []

    def run(self, jobs: Sequence[SweepJob]) -> list[Any]:  # pragma: no cover
        raise NotImplementedError

    def run_stream(
        self, jobs: Iterable[SweepJob], *, window: int | None = None
    ) -> Iterator[Any]:
        """Incremental :meth:`run`: yield results in submission order
        while consuming *jobs* lazily, at most *window* jobs in flight.

        Same semantics as :meth:`run` — submission-order results,
        chunking/timeout/retries per window, application errors raised
        at the offending result's position — but neither the job list
        nor the result list is ever materialized beyond one window, so
        a 10^6-config campaign runs in O(window) memory.

        :attr:`job_retries` grows as results are yielded (one entry per
        job yielded so far) and is complete when the iterator is
        exhausted, so streamed telemetry sees the same counts as a
        materialized run.
        """
        window = int(window) if window is not None else self._stream_window()
        if window < 1:
            raise ValueError("window must be >= 1")
        it = iter(jobs)
        retries: list[int] = []
        self.job_retries = retries
        while True:
            batch = list(islice(it, window))
            if not batch:
                return
            recorder = spans_active()
            if recorder is not None:
                # Job spans must carry campaign-global indices, but
                # run() only sees this window; the offset bridges them.
                recorder.index_offset = len(retries)
            results = self.run(batch)
            # run() replaced job_retries with this batch's counts; fold
            # them into the cumulative stream-wide list.
            retries.extend(self.job_retries)
            self.job_retries = retries
            yield from results

    def _stream_window(self) -> int:
        """Default in-flight window for :meth:`run_stream`."""
        return DEFAULT_STREAM_WINDOW

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Convenience: run ``fn`` once per item (``fn`` must be picklable
        for pooled runners; use a module-level function or partial)."""
        return self.run([_BoundJob(fn, item) for item in items])


@dataclass(frozen=True)
class _BoundJob:
    """Picklable ``fn(item)`` thunk used by :meth:`SweepRunner.map`."""

    fn: Callable[[Any], Any]
    item: Any

    def __call__(self) -> Any:
        return self.fn(self.item)


class SerialRunner(SweepRunner):
    """Run every job in-process, in submission order (reference runner)."""

    def run(self, jobs: Sequence[SweepJob]) -> list[Any]:
        self.job_retries = [0] * len(jobs)
        recorder = spans_active()
        if recorder is None:
            return [job() for job in jobs]
        return self._run_traced(recorder, jobs)

    @staticmethod
    def _run_traced(
        recorder: SpanRecorder, jobs: Sequence[SweepJob]
    ) -> list[Any]:
        base = recorder.index_offset
        values = []
        with recorder.span(
            "sweep.run", "sweep", attrs={"jobs": len(jobs)}
        ) as root:
            for offset, job in enumerate(jobs):
                with recorder.span(
                    "job", "job", parent=root.id,
                    attrs={"index": base + offset},
                ) as span:
                    value = job()
                    span.attrs["outcome"] = outcome_class(value)
                values.append(value)
        return values

    def run_stream(
        self, jobs: Iterable[SweepJob], *, window: int | None = None
    ) -> Iterator[Any]:
        # Fully lazy: one job in memory at a time, no window needed.
        retries: list[int] = []
        self.job_retries = retries
        for job in jobs:
            recorder = spans_active()
            if recorder is None:
                result = job()
            else:
                with recorder.span(
                    "job", "job", attrs={"index": len(retries)}
                ) as span:
                    result = job()
                    span.attrs["outcome"] = outcome_class(result)
            retries.append(0)
            yield result


# Back-compat alias: the worker-side chunk entry point moved to the
# transport seam (it is shared by the pool and the socket workers).
_run_chunk = run_chunk


class TransportRunner(SweepRunner):
    """The generic chunked scheduling loop over a pluggable transport.

    Subclasses provide ``chunk_size`` / ``timeout`` / ``retries``
    attributes and a :meth:`_transport` factory; this class owns the
    semantics documented in the module docstring — chunking, the
    cumulative timeout budget, bounded chunk retries with deterministic
    attribution, immediate propagation of application errors — so every
    transport (in-process pool, socket fleet) behaves identically to
    the pinned :class:`ProcessPoolRunner` contract.
    """

    chunk_size: int | None
    timeout: float | None
    retries: int

    def _transport(self) -> Transport:  # pragma: no cover
        raise NotImplementedError

    def _auto_chunk(self, n_jobs: int, width: int) -> int:
        """Default chunk size: roughly four chunks per worker, balancing
        dispatch overhead against load balance (transports may cap it)."""
        return max(1, math.ceil(n_jobs / (width * 4)))

    # -- scheduling --------------------------------------------------------

    def run(self, jobs: Sequence[SweepJob]) -> list[Any]:
        jobs = list(jobs)
        if not jobs:
            return []
        recorder = spans_active()
        if recorder is None:
            return self._run(jobs, None)
        with recorder.span("sweep.run", "sweep", attrs={"jobs": len(jobs)}):
            return self._run(jobs, recorder)

    def _run(
        self, jobs: list[SweepJob], recorder: SpanRecorder | None
    ) -> list[Any]:
        transport = self._transport()
        width = max(1, transport.parallelism())
        chunk = self.chunk_size or self._auto_chunk(len(jobs), width)
        #: (start_index, jobs_slice) descriptors; a chunk is the retry unit.
        chunks = [
            (i, jobs[i : i + chunk]) for i in range(0, len(jobs), chunk)
        ]
        results: list[Any] = [_UNSET] * len(jobs)
        attempts = {start: 0 for start, _ in chunks}
        pending = chunks
        while pending:
            # Sort by start index: _run_round collects failures in
            # completion order (effectively arbitrary), and both the
            # retry submissions and the exhausted-chunk raise below must
            # not depend on that order for attribution to be
            # deterministic.
            pending = sorted(
                self._run_round(transport, width, pending, results, recorder)
            )
            if pending:
                metrics.SWEEP_RETRIES.inc(len(pending))
            for start, part in pending:
                attempts[start] += 1
                if attempts[start] > self.retries:
                    indices = [
                        start + k
                        for k in range(len(part))
                        if results[start + k] is _UNSET
                    ]
                    raise SweepError(
                        f"{len(indices)} job(s) did not complete after "
                        f"{self.retries} retr{'y' if self.retries == 1 else 'ies'} "
                        f"(indices {indices}); a deterministic job that "
                        f"exceeds its timeout will do so on every attempt",
                        indices=indices,
                    )
        self.job_retries = [0] * len(jobs)
        for start, part in chunks:
            for k in range(len(part)):
                self.job_retries[start + k] = attempts[start]
        return results

    def _run_round(
        self,
        transport: Transport,
        width: int,
        chunks: list[tuple[int, list[SweepJob]]],
        results: list[Any],
        recorder: SpanRecorder | None = None,
    ) -> list[tuple[int, list[SweepJob]]]:
        """Submit *chunks* on a fresh round; fill *results*; return the
        chunks that must be retried (timed out or lost in transit)."""
        metrics.SWEEP_ROUNDS.inc()
        round_span = None
        if recorder is not None:
            round_span = recorder.begin(
                "round.run", "round",
                attrs={"chunks": len(chunks),
                       "jobs": sum(len(part) for _s, part in chunks)},
            )
        round_ = transport.open_round()
        try:
            for start, part in chunks:
                if recorder is not None:
                    recorder.chunk_begin(start, len(part))
                round_.submit(start, part)
            deadline_at = None
            if self.timeout is not None:
                total = sum(len(part) for _s, part in chunks)
                # Cumulative budget: jobs run `width` at a time, so the
                # round as a whole gets ceil(total/width) job-budgets
                # (plus one for scheduling slack).
                budget = self.timeout * (math.ceil(total / width) + 1)
                deadline_at = time.monotonic() + budget
            failed: list[tuple[int, list[SweepJob]]] = []
            while round_.pending():
                remaining = None
                if deadline_at is not None:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:  # budget exhausted, jobs still running
                        failed.extend(
                            self._lose(round_.pending(), recorder)
                        )
                        round_.abandon()
                        return failed
                for start, part, values in round_.wait(remaining):
                    if values is None:
                        failed.append((start, part))
                        if recorder is not None:
                            recorder.chunk_end(start, "lost")
                        metrics.SWEEP_CHUNKS.inc(status="lost")
                    else:
                        for k, value in enumerate(values):
                            results[start + k] = value
                        if recorder is not None:
                            dispatch = recorder.chunk_end(start, "done")
                            if dispatch is not None:
                                recorder.chunk_merge(dispatch)
                        metrics.SWEEP_CHUNKS.inc(status="done")
                        metrics.SWEEP_JOBS.inc(len(values))
                if round_.broken:
                    # No capacity left; everything unfinished is lost.
                    failed.extend(self._lose(round_.pending(), recorder))
                    round_.abandon()
                    return failed
            round_.close()
            return failed
        except BaseException:
            # Application errors and interrupts alike: terminate wedged
            # workers instead of awaiting them, then propagate.
            round_.abandon()
            raise
        finally:
            if round_span is not None:
                recorder.end(round_span)

    @staticmethod
    def _lose(
        chunks: list[tuple[int, list[SweepJob]]],
        recorder: SpanRecorder | None,
    ) -> list[tuple[int, list[SweepJob]]]:
        """Account chunks abandoned in-flight (timeout/broken round)."""
        if chunks:
            metrics.SWEEP_CHUNKS.inc(len(chunks), status="lost")
        if recorder is not None:
            for start, _part in chunks:
                recorder.chunk_end(start, "lost")
        return chunks


@dataclass
class ProcessPoolRunner(TransportRunner):
    """Fan jobs out across worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``workers=1`` still uses a pool (one
        worker) — useful for verifying that jobs survive the process
        boundary; use :class:`SerialRunner` for a true in-process run.
    chunk_size:
        Jobs per pool task.  ``None`` auto-chunks to roughly four tasks
        per worker, balancing IPC overhead against load balance.
    timeout:
        Per-job wall-clock budget in seconds (``None``: no timeout).
    retries:
        How many times a failed/timed-out chunk is re-submitted on a
        fresh pool before :class:`SweepError` is raised.
    mp_context:
        ``multiprocessing`` start-method name (``"fork"``, ``"spawn"``,
        ``"forkserver"``).  ``None`` picks ``"fork"`` where available
        (cheap, inherits imported modules) and the platform default
        elsewhere.
    """

    workers: int
    chunk_size: int | None = None
    timeout: float | None = None
    retries: int = 1
    mp_context: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        # The dataclass-generated __init__ bypasses SweepRunner.__init__.
        self.job_retries = []

    def _stream_window(self) -> int:
        # Keep every worker busy across a window: explicit chunk sizes
        # scale the window, auto-chunking gets the shared default.
        if self.chunk_size is not None:
            return max(DEFAULT_STREAM_WINDOW, self.chunk_size * self.workers * 4)
        return max(DEFAULT_STREAM_WINDOW, self.workers * 128)

    # -- transport ---------------------------------------------------------

    def _transport(self) -> Transport:
        return LocalPoolTransport(workers=self.workers, mp_context=self.mp_context)


def make_runner(
    workers: int | None = None,
    *,
    chunk_size: int | None = None,
    timeout: float | None = None,
    retries: int = 1,
    mp_context: str | None = None,
    cache: Any = None,
    addresses: Any = None,
) -> SweepRunner:
    """Build the right runner for a worker count.

    ``workers`` of ``None``, ``0`` or ``1`` gives the in-process
    :class:`SerialRunner`; anything larger gives a
    :class:`ProcessPoolRunner`.  (Construct :class:`ProcessPoolRunner`
    directly to force a single-worker pool.)  ``addresses`` (a
    ``"host:port,..."`` string or ``(host, port)`` tuples) selects the
    distributed :class:`~repro.parallel.remote.RemoteRunner` instead —
    ``workers`` is ignored; parallelism is the fleet size.

    ``cache`` (``True`` for the default directory, a path, or a
    ``repro.cache.RunCache``) wraps either runner in a
    ``repro.cache.CachedRunner``: jobs implementing the cache contract
    (see :mod:`repro.parallel.jobs`) are answered from the
    content-addressed store, everything else executes as usual.  Serial
    and pooled runners share the same store and the same
    submission-order merge, so a cached sweep's report is byte-identical
    to an uncached one.  The remote runner instead performs lookups
    *worker-side* (see ``RemoteRunner.attach_cache``) — same store,
    same counters, but warm entries never cross the wire.
    """
    runner: SweepRunner
    if addresses:
        from .remote import RemoteRunner

        runner = RemoteRunner(
            addresses=addresses,
            chunk_size=chunk_size,
            timeout=timeout,
            retries=retries,
        )
        if cache is not None and cache is not False:
            runner.attach_cache(cache)
        return runner
    if workers is None or workers <= 1:
        runner = SerialRunner()
    else:
        runner = ProcessPoolRunner(
            workers=workers,
            chunk_size=chunk_size,
            timeout=timeout,
            retries=retries,
            mp_context=mp_context,
        )
    if cache is not None and cache is not False:
        # Imported lazily: repro.cache.runner imports this module.
        from ..cache import CachedRunner, RunCache

        runner = CachedRunner(cache=RunCache.at(cache), inner=runner)
    return runner
