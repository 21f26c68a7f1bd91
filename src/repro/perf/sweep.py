"""Crash-safe parallel sweep executor for independent experiment runs.

Every latency table/figure sweeps independent (flow x parameter)
combinations: each run compiles and simulates its own design, nothing is
shared except the content-addressed cache.  ``run_sweep`` fans those
runs across a :class:`~concurrent.futures.ProcessPoolExecutor` and
returns the results in submission order, so a table built from a sweep
is identical to the serial one — the rows are pure functions of their
inputs, only the wall clock changes.

On top of the PR-1 executor this module adds the supervision layer a
multi-hour campaign needs:

* **journaled resume** — with an active :class:`~repro.perf.journal.RunJournal`
  every completed point is fsync'd to disk before the sweep moves on,
  and already-journaled points are merged instead of recomputed;
* **worker supervision** — per-job wall-clock timeouts, bounded retry
  with exponential backoff + jitter, and quarantine: a point that fails
  ``max_attempts`` times lands in the outcome's ``failed`` list (its
  result is ``None``) instead of aborting the sweep;
* **pool respawn** — a worker that dies (``os._exit``, OOM-kill,
  segfault) breaks a ``ProcessPoolExecutor`` permanently; the supervisor
  respawns the pool and re-runs the in-flight jobs rather than
  surfacing ``BrokenProcessPool``;
* **clean interruption** — SIGINT/SIGTERM mid-sweep kills the pool,
  leaves the journal flushed, and raises
  :class:`~repro.errors.SweepInterrupted` carrying the partial results
  so callers can emit a ``"partial": true`` record and exit 130.

The job count resolves, in priority order: the explicit ``jobs``
argument, the ``REPRO_BENCH_JOBS`` environment variable, then 1
(serial).  ``--jobs 1`` is a genuine serial fallback: no pool, no
pickling, no fork — and therefore no timeout enforcement or
crash survival (a crashing point takes the process with it); retries,
quarantine, and journaling still apply.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..env import env_number
from ..errors import SweepInterrupted
from .cache import cache_stats, merge_stats
from .journal import RunJournal, current_journal, spec_key
from .supervise import BackoffPolicy


@dataclass(slots=True)
class SweepSpec:
    """One independent run of a sweep: a top-level callable plus inputs.

    ``fn`` must be picklable by reference (a module-level function) so
    the process pool can ship it to workers; its return value crosses
    back the same way.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: Optional caller label; used in journal records and failure
    #: reports (falls back to ``module.qualname(args)``).
    key: Any = None

    def label(self) -> str:
        if self.key is not None:
            return str(self.key)
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in sorted(self.kwargs.items())]
        return f"{name}({', '.join(parts)})"

    def content_key(self) -> str:
        return spec_key(self.fn, self.args, self.kwargs)


@dataclass(slots=True)
class SweepFailure:
    """One quarantined sweep point: what failed, how, how many times."""

    index: int
    key: str
    label: str
    error: str
    attempts: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass(slots=True)
class SweepOutcome:
    """Everything a supervised sweep produced, success or not.

    ``results`` is in submission order; quarantined points hold ``None``
    and appear in ``failed``.  The counters tell the story a long
    campaign's operator wants: how much was resumed from the journal,
    how many retries and pool respawns the run survived.
    """

    results: list[Any] = field(default_factory=list)
    failed: list[SweepFailure] = field(default_factory=list)
    completed: int = 0
    resumed: int = 0
    retried: int = 0
    pool_respawns: int = 0
    partial: bool = False

    @property
    def ok(self) -> bool:
        return not self.failed and not self.partial


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: argument > REPRO_BENCH_JOBS > 1."""
    if jobs is None:
        jobs = env_number("REPRO_BENCH_JOBS", 1, int)
    return max(1, jobs)


def _worker_init() -> None:
    """Reset signal dispositions in sweep workers.

    Workers must die silently on the supervisor's ``terminate()``
    (SIGTERM) rather than run an inherited handler, and must ignore
    Ctrl-C so the parent — not 2N broken workers — owns the one clean
    interrupt path.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def _run_spec(spec: SweepSpec) -> tuple[Any, dict[str, Any]]:
    """Worker body: run one spec and report the cache-stats delta."""
    before = cache_stats().as_dict()
    result = spec.fn(*spec.args, **spec.kwargs)
    after = cache_stats().as_dict()
    delta = {k: after[k] - before[k] for k in after}
    return result, delta


#: Quarantined points from every sweep since the last drain — the CLI
#: and bench harness read this to report failures across an experiment
#: that runs several sweeps.
_FAILURE_LOG: list[SweepFailure] = []


def take_failure_report() -> list[SweepFailure]:
    """Drain the accumulated quarantined-point reports."""
    global _FAILURE_LOG
    drained, _FAILURE_LOG = _FAILURE_LOG, []
    return drained


@dataclass(slots=True)
class _Job:
    """Supervisor-internal bookkeeping for one in-flight sweep point."""

    index: int
    spec: SweepSpec
    key: str
    attempts: int = 0
    eligible_at: float = 0.0
    started_at: float = 0.0
    last_error: str = ""
    #: True after this job was in flight during a pool crash: suspects
    #: re-run one at a time so the next crash names the guilty job.
    suspect: bool = False


class WorkerSupervisor:
    """Runs jobs on a respawnable process pool with timeouts and retries.

    The supervisor never lets a single bad point abort the batch: a job
    that raises is retried with exponential backoff + jitter; a job that
    exceeds ``timeout_s`` has the whole pool killed (there is no way to
    kill one ``ProcessPoolExecutor`` worker portably) and innocent
    in-flight jobs re-run without an attempt penalty; a worker crash
    (``BrokenProcessPool``) respawns the pool and penalizes every
    in-flight job one attempt, since the crasher is unidentifiable.
    After ``max_attempts`` failures a job is quarantined.
    """

    #: Poll interval of the supervision loop (also the granularity of
    #: timeout detection), kept small relative to any real compile.
    _POLL_S = 0.05

    def __init__(
        self,
        workers: int,
        timeout_s: float | None = None,
        max_attempts: int = 3,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 5.0,
    ):
        self.workers = max(1, workers)
        self.timeout_s = timeout_s
        self.max_attempts = max(1, max_attempts)
        self.backoff = BackoffPolicy(
            base_s=max(0.0, backoff_base_s), cap_s=backoff_cap_s
        )
        self.respawns = 0
        self.retries = 0
        self._pool: ProcessPoolExecutor | None = None

    # -- pool lifecycle ------------------------------------------------------

    def _pool_or_spawn(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_init
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Hard-stop the pool: terminate workers, drop the executor."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    # -- retry policy --------------------------------------------------------

    def _retry_or_quarantine(
        self,
        job: _Job,
        error: str,
        pending: deque,
        failures: list[SweepFailure],
        penalty: int = 1,
    ) -> None:
        job.attempts += penalty
        job.last_error = error
        if job.attempts >= self.max_attempts:
            failures.append(
                SweepFailure(
                    index=job.index,
                    key=job.key,
                    label=job.spec.label(),
                    error=error,
                    attempts=job.attempts,
                )
            )
            return
        self.retries += 1
        job.eligible_at = time.monotonic() + self.backoff.delay(job.attempts)
        pending.append(job)

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        items: Sequence[tuple[int, SweepSpec, str]],
        on_success: Callable[[_Job, Any], None],
    ) -> list[SweepFailure]:
        """Run every (index, spec, key) item; returns quarantined points.

        Successes are delivered through ``on_success`` as they complete
        (that is where the caller journals and merges stats), so a crash
        of the *supervisor's own process* still leaves every delivered
        point journaled.
        """
        pending: deque[_Job] = deque(
            _Job(index=i, spec=spec, key=key) for i, spec, key in items
        )
        running: dict[Any, _Job] = {}
        failures: list[SweepFailure] = []
        try:
            while pending or running:
                now = time.monotonic()
                self._submit_eligible(pending, running, now)
                if not running:
                    # Everything is backing off: sleep to the earliest.
                    wake = min(job.eligible_at for job in pending)
                    time.sleep(max(0.0, min(wake - now, self.backoff.cap_s)))
                    continue
                done, _ = wait(
                    list(running), timeout=self._POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                crashed = False
                for future in done:
                    job = running.pop(future)
                    try:
                        result, stats_delta = future.result()
                    except BrokenProcessPool:
                        crashed = True
                        job.suspect = True
                        self._retry_or_quarantine(
                            job, "worker process died (pool crashed)",
                            pending, failures,
                        )
                    except Exception as exc:
                        self._retry_or_quarantine(
                            job, f"{type(exc).__name__}: {exc}",
                            pending, failures,
                        )
                    else:
                        merge_stats(stats_delta)
                        on_success(job, result)
                if crashed:
                    self._handle_crash(running, pending, failures)
                elif self.timeout_s is not None:
                    self._handle_timeouts(running, pending, failures)
        except (KeyboardInterrupt, SystemExit):
            self._kill_pool()
            raise
        finally:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        return failures

    def _submit_eligible(
        self, pending: deque, running: dict, now: float
    ) -> None:
        # Never queue more than `workers` jobs inside the executor, so
        # `started_at` measures actual run time, not queue wait.
        #
        # Crash triage: while any suspect exists, exactly one suspect
        # runs and nothing else — a crash then charges only the job
        # that was provably running, so an innocent point can never be
        # quarantined by a neighbour's repeated crashes.
        triage = any(j.suspect for j in pending) or any(
            j.suspect for j in running.values()
        )
        suspect_in_flight = any(j.suspect for j in running.values())
        eligible = deque()
        while pending:
            job = pending.popleft()
            allowed = job.eligible_at <= now and len(running) < self.workers
            if triage:
                allowed = allowed and job.suspect and not suspect_in_flight
            if allowed:
                pool = self._pool_or_spawn()
                try:
                    future = pool.submit(_run_spec, job.spec)
                except BrokenProcessPool:
                    # Pool broke between batches: respawn and retry.
                    self.respawns += 1
                    self._kill_pool()
                    eligible.append(job)
                    continue
                job.started_at = time.monotonic()
                running[future] = job
                suspect_in_flight = suspect_in_flight or job.suspect
            else:
                eligible.append(job)
        pending.extend(eligible)

    def _handle_crash(
        self, running: dict, pending: deque, failures: list[SweepFailure]
    ) -> None:
        """A worker died; every in-flight future is unrecoverable."""
        self.respawns += 1
        self._kill_pool()
        for future, job in list(running.items()):
            job.suspect = True
            self._retry_or_quarantine(
                job, "worker process died (pool crashed)", pending, failures
            )
        running.clear()

    def _handle_timeouts(
        self, running: dict, pending: deque, failures: list[SweepFailure]
    ) -> None:
        now = time.monotonic()
        overdue = {
            future: job
            for future, job in running.items()
            if now - job.started_at > self.timeout_s
        }
        if not overdue:
            return
        # A hung worker cannot be killed individually: take the pool
        # down, charge the overdue jobs, and re-run the innocent ones
        # with no attempt penalty.
        self.respawns += 1
        self._kill_pool()
        for future, job in list(running.items()):
            del running[future]
            if future in overdue:
                self._retry_or_quarantine(
                    job,
                    f"timed out after {self.timeout_s:g}s",
                    pending,
                    failures,
                )
            else:
                job.eligible_at = 0.0
                pending.append(job)


# ---------------------------------------------------------------------------
# run_sweep: the public entry point
# ---------------------------------------------------------------------------


def run_sweep_outcome(
    specs: Sequence[SweepSpec],
    jobs: int | None = None,
    *,
    journal: RunJournal | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    backoff_base_s: float | None = None,
) -> SweepOutcome:
    """Run every spec under supervision and return the full outcome.

    Args:
        journal: run journal to resume from / record into; defaults to
            the process-wide active journal (set by ``repro bench``).
        timeout_s: per-job wall-clock budget (default
            ``REPRO_SWEEP_TIMEOUT_S``, unset means no timeout);
            enforced only on the parallel path.
        retries: re-runs allowed per point after its first failure
            (default ``REPRO_SWEEP_RETRIES`` or 2, i.e. 3 attempts).
        backoff_base_s: first-retry backoff (default
            ``REPRO_SWEEP_RETRY_BASE`` or 0.1s), doubling per attempt
            with +-25% jitter.

    SIGINT/SIGTERM during the sweep raise
    :class:`~repro.errors.SweepInterrupted` after the pool is torn down;
    every already-completed point is journaled, so ``--resume`` picks up
    exactly where the signal landed.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    journal = journal if journal is not None else current_journal()
    timeout_s = timeout_s if timeout_s is not None else env_number(
        "REPRO_SWEEP_TIMEOUT_S", None
    )
    max_attempts = 1 + (
        retries if retries is not None else env_number("REPRO_SWEEP_RETRIES", 2, int)
    )
    backoff = (
        backoff_base_s
        if backoff_base_s is not None
        else env_number("REPRO_SWEEP_RETRY_BASE", 0.1)
    )

    outcome = SweepOutcome(results=[None] * len(specs))
    keys = [spec.content_key() for spec in specs]

    # Merge journaled points first: identical content keys identify
    # work already fsync'd to disk by an earlier (possibly killed) run.
    completed = journal.completed() if journal is not None else {}
    todo: list[tuple[int, SweepSpec, str]] = []
    for i, spec in enumerate(specs):
        if keys[i] in completed:
            outcome.results[i] = completed[keys[i]]
            outcome.resumed += 1
            outcome.completed += 1
        else:
            todo.append((i, spec, keys[i]))

    if not todo:
        return outcome

    def record_success(index: int, spec: SweepSpec, key: str, result: Any,
                       elapsed_s: float) -> None:
        outcome.results[index] = result
        outcome.completed += 1
        if journal is not None:
            journal.record_point(
                key, result, label=spec.label(), elapsed_s=elapsed_s
            )

    def record_failure(failure: SweepFailure) -> None:
        outcome.failed.append(failure)
        _FAILURE_LOG.append(failure)
        if journal is not None:
            journal.record_failure(
                failure.key, failure.error, label=failure.label
            )

    with _deliver_sigterm_as_interrupt():
        try:
            if jobs <= 1 or len(todo) <= 1:
                _run_serial(
                    todo, record_success, record_failure,
                    max_attempts=max_attempts, backoff_base_s=backoff,
                )
            else:
                supervisor = WorkerSupervisor(
                    workers=min(jobs, len(todo)),
                    timeout_s=timeout_s,
                    max_attempts=max_attempts,
                    backoff_base_s=backoff,
                )

                def on_success(job: _Job, result: Any) -> None:
                    record_success(
                        job.index, job.spec, job.key, result,
                        time.monotonic() - job.started_at,
                    )

                for failure in supervisor.run(todo, on_success):
                    record_failure(failure)
                outcome.retried += supervisor.retries
                outcome.pool_respawns += supervisor.respawns
        except KeyboardInterrupt:
            outcome.partial = True
            raise SweepInterrupted(
                f"sweep interrupted with {outcome.completed}/{len(specs)} "
                "points complete",
                completed=outcome.completed,
                total=len(specs),
                results=outcome.results,
                journal_path=journal.path if journal is not None else None,
            ) from None
    return outcome


def _run_serial(
    todo: list[tuple[int, SweepSpec, str]],
    record_success,
    record_failure,
    max_attempts: int,
    backoff_base_s: float,
) -> None:
    """In-process execution with the same retry/quarantine contract.

    No pool means no timeout enforcement and no crash survival — but a
    raising point is still retried with backoff and quarantined instead
    of aborting the batch, and every success is journaled immediately.
    """
    backoff = BackoffPolicy(base_s=max(0.0, backoff_base_s))
    for index, spec, key in todo:
        attempts = 0
        while True:
            attempts += 1
            start = time.monotonic()
            try:
                result = spec.fn(*spec.args, **spec.kwargs)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if attempts >= max_attempts:
                    record_failure(
                        SweepFailure(
                            index=index,
                            key=key,
                            label=spec.label(),
                            error=f"{type(exc).__name__}: {exc}",
                            attempts=attempts,
                        )
                    )
                    break
                time.sleep(backoff.delay(attempts))
            else:
                record_success(
                    index, spec, key, result, time.monotonic() - start
                )
                break


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


class _deliver_sigterm_as_interrupt:
    """Route SIGTERM through KeyboardInterrupt for the sweep's duration.

    A scheduler preempting the run sends SIGTERM; mapping it onto the
    same path as Ctrl-C means one flush-and-report shutdown flow for
    both.  No-op off the main thread (signal handlers cannot be
    installed there) and when a previous handler was already custom.
    """

    def __enter__(self):
        self._installed = False
        if threading.current_thread() is not threading.main_thread():
            return self
        try:
            self._previous = signal.getsignal(signal.SIGTERM)
            if self._previous in (signal.SIG_DFL, None):
                signal.signal(signal.SIGTERM, _raise_interrupt)
                self._installed = True
        except (ValueError, OSError):
            pass
        return self

    def __exit__(self, *exc_info):
        if self._installed:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except (ValueError, OSError):
                pass


def run_sweep(
    specs: Sequence[SweepSpec],
    jobs: int | None = None,
    *,
    journal: RunJournal | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
) -> list[Any]:
    """Run every spec and return their results in submission order.

    Quarantined points (those that failed every retry) return ``None``
    in their slot; the detailed report is available through
    :func:`run_sweep_outcome` or :func:`take_failure_report`.
    """
    return run_sweep_outcome(
        specs, jobs, journal=journal, timeout_s=timeout_s, retries=retries
    ).results
