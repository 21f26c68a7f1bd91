"""Append-only run journals: crash-safe bookkeeping for long sweeps.

A multi-hour bench campaign must survive preemption: the journal records
one line per *completed* sweep point, flushed and fsync'd before the
sweep moves on, so a SIGKILL at any instant loses at most the point that
was in flight.  ``run_sweep`` consults the journal before executing and
skips every point it already holds, merging the stored results — a
resumed run therefore produces byte-identical output to an uninterrupted
one.

Format: JSON Lines (one record per line) under
``$REPRO_RUNS_DIR`` (default ``<cache-dir>/runs``), one file per run id.

* line 1 — ``{"kind": "header", "run_id", "experiment", "schema",
  "model", "created_unix"}``; ``model`` is the
  :func:`~repro.perf.fingerprint.model_constants_fingerprint` at write
  time, so a journal written against older model constants is never
  merged into a run against newer ones.
* point lines — ``{"kind": "point", "key", "label", "status",
  "payload", "sha256", "elapsed_s"}``; ``payload`` is the
  base64-encoded pickle of the point's result and ``sha256`` its
  checksum.  Failed (quarantined) points are recorded with
  ``status: "failed"`` and an ``error`` string instead of a payload —
  they are *not* skipped on resume, so a transient failure gets another
  chance on the next run.
* an optional ``{"kind": "end", "status": "complete"}`` trailer marks a
  run that finished; its absence marks a partial (killed) run.

Reading is maximally tolerant: a truncated final line (the crash case),
a corrupt middle line, or a payload whose checksum does not match are
all skipped, never raised.  Writing failures *are* raised
(:class:`~repro.errors.JournalError`) — silently losing journal records
would break the resume contract.

The record log itself — :func:`read_records`, :class:`AppendLog`,
:func:`encode_line` and :func:`encode_blob`/:func:`decode_blob` — is
shared with the serving write-ahead log (:mod:`repro.serve.journal`);
each journal is only a record schema and a fold over it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import re
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import JournalError
from .fingerprint import model_constants_fingerprint, to_jsonable

#: Bump when the journal line format changes incompatibly; mismatched
#: journals are listed but never merged.
JOURNAL_SCHEMA_VERSION = 1

_RUN_SUFFIX = ".jsonl"
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


# ---------------------------------------------------------------------------
# The append-log primitive: one fsync'd JSONL file of dict records
# ---------------------------------------------------------------------------


def encode_line(record: dict) -> str:
    """The canonical one-line JSON form every journal record is written in."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def read_records(path: str) -> list[dict]:
    """Every readable record of a JSONL file, in order.

    Blank lines, lines that do not decode (a torn final line after a
    crash, or a scribbled-on middle one) and lines that are not JSON
    objects are skipped, never raised; a missing file has no records.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.readlines()
    except OSError:
        return []
    records = []
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


class AppendLog:
    """The write side of a JSONL journal: one fsync'd record per append.

    The file is opened lazily on the first append.  A file that is new
    (or empty) first gets the record ``header()`` returns; an existing
    file whose final line was torn by a crash gets that line terminated,
    so the next record starts on its own line instead of being glued to
    (and lost with) it.  Each record is flushed and fsync'd before
    :meth:`append` returns.  Not thread-safe: callers that append from
    several threads hold their own lock.
    """

    def __init__(self, path: str, header: Callable[[], dict]):
        self.path = path
        self._header = header
        self._handle = None

    def append(self, record: dict) -> None:
        """Write one record durably; raises :class:`OSError` on failure."""
        if self._handle is None:
            self._open()
        self._handle.write(encode_line(record).encode("utf-8") + b"\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _open(self) -> None:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        handle = open(self.path, "a+b")
        if handle.seek(0, os.SEEK_END) == 0:
            handle.write(encode_line(self._header()).encode("utf-8") + b"\n")
        else:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        self._handle = handle

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None


def encode_blob(blob: bytes) -> dict[str, str]:
    """The ``payload`` (base64) and ``sha256`` fields carrying ``blob``."""
    return {
        "payload": base64.b64encode(blob).decode("ascii"),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def decode_blob(record: dict) -> bytes | None:
    """The checksum-verified blob of a record, or None when it is absent,
    torn or corrupted (treated as never written)."""
    payload = record.get("payload")
    digest = record.get("sha256")
    if not isinstance(payload, str) or not isinstance(digest, str):
        return None
    try:
        blob = base64.b64decode(payload.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError):
        return None
    if hashlib.sha256(blob).hexdigest() != digest:
        return None
    return blob


def pickle_blob(value: Any) -> bytes | None:
    """``value`` pickled for a blob field, or None when it will not pickle."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Run journals
# ---------------------------------------------------------------------------


def default_runs_dir() -> str:
    """The run-journal directory, env-overridable like the cache dir."""
    explicit = os.environ.get("REPRO_RUNS_DIR")
    if explicit:
        return explicit
    from .cache import default_cache_dir

    return os.path.join(default_cache_dir(), "runs")


def new_run_id(experiment: str = "run") -> str:
    """A fresh, human-sortable run id: ``<experiment>-<utc stamp>-<pid>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    slug = re.sub(r"[^A-Za-z0-9._-]", "_", experiment) or "run"
    return f"{slug}-{stamp}-{os.getpid()}"


def spec_key(fn: Any, args: tuple = (), kwargs: dict | None = None) -> str:
    """A stable content key identifying one sweep point.

    Covers the callable's identity plus its arguments; two runs of the
    same experiment produce the same keys, which is what makes resume
    work.  Arguments the canonical-JSON encoder cannot handle fall back
    to ``repr`` — stable for the value types experiments actually sweep.
    """
    try:
        payload = encode_line(
            to_jsonable({"args": list(args), "kwargs": kwargs or {}})
        )
    except TypeError:
        payload = repr((args, sorted((kwargs or {}).items())))
    identity = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    digest = hashlib.sha256(f"{identity}|{payload}".encode()).hexdigest()
    return digest


@dataclass(slots=True)
class RunInfo:
    """Summary of one journaled run (what ``repro perf runs`` prints)."""

    run_id: str
    path: str
    experiment: str = ""
    created_unix: float = 0.0
    points_ok: int = 0
    points_failed: int = 0
    complete: bool = False
    #: False when the journal was written against different model
    #: constants (or journal schema) and would not be merged on resume.
    mergeable: bool = True


class RunJournal:
    """One run's append-only JSONL journal.

    Opening an existing path loads every valid record; appends go to the
    same file with a flush + fsync per record.  The in-memory view and
    the on-disk file never disagree by more than the record being
    written, which is exactly the crash-safety contract resume needs.
    """

    def __init__(self, path: str, run_id: str, experiment: str = ""):
        self.path = path
        self.run_id = run_id
        self.experiment = experiment
        self._completed: dict[str, tuple[Any, float]] = {}
        self._failed: dict[str, str] = {}
        self._labels: dict[str, str] = {}
        self._complete = False
        self._mergeable = True
        self._log = AppendLog(path, self._header)
        self._load()

    # -- construction --------------------------------------------------------

    @classmethod
    def open(
        cls, run_id: str, runs_dir: str | None = None, experiment: str = ""
    ) -> "RunJournal":
        """Open (creating if new) the journal for ``run_id``."""
        if not _RUN_ID_RE.match(run_id):
            raise JournalError(
                f"invalid run id {run_id!r} (letters, digits, '.', '_', '-')"
            )
        directory = runs_dir or default_runs_dir()
        path = os.path.join(directory, run_id + _RUN_SUFFIX)
        return cls(path, run_id, experiment=experiment)

    # -- reading -------------------------------------------------------------

    def _load(self) -> None:
        for record in read_records(self.path):
            kind = record.get("kind")
            if kind == "header":
                self.experiment = record.get("experiment", self.experiment)
                # Results computed under a different schema or different
                # model constants must not be merged into this run.
                self._mergeable = self._mergeable and _header_mergeable(record)
            elif kind == "point":
                self._load_point(record)
            elif kind == "end":
                self._complete = record.get("status") == "complete"

    def _load_point(self, record: dict) -> None:
        key = record.get("key")
        if not isinstance(key, str):
            return
        label = record.get("label", "")
        if record.get("status") == "failed":
            self._failed[key] = str(record.get("error", "unknown failure"))
            self._labels[key] = label
            return
        blob = decode_blob(record)
        if blob is None:
            return  # torn or corrupted record: treat as never written
        try:
            value = pickle.loads(blob)
        except Exception:
            return
        self._completed[key] = (value, float(record.get("elapsed_s", 0.0)))
        self._labels[key] = label
        self._failed.pop(key, None)

    def completed(self) -> dict[str, Any]:
        """Results of every journaled-complete point, keyed by spec key.

        Empty when the journal is not mergeable (schema or model-constant
        mismatch): resume then recomputes every point rather than mixing
        artifacts from two model versions.
        """
        if not self._mergeable:
            return {}
        return {key: value for key, (value, _) in self._completed.items()}

    def failed(self) -> dict[str, str]:
        """Error strings of journaled-failed (quarantined) points."""
        return dict(self._failed)

    @property
    def mergeable(self) -> bool:
        return self._mergeable

    @property
    def complete(self) -> bool:
        return self._complete

    def label_for(self, key: str) -> str:
        return self._labels.get(key, "")

    # -- writing -------------------------------------------------------------

    def _header(self) -> dict:
        return {
            "kind": "header",
            "run_id": self.run_id,
            "experiment": self.experiment,
            "schema": JOURNAL_SCHEMA_VERSION,
            "model": model_constants_fingerprint(),
            "created_unix": time.time(),
        }

    def _append(self, record: dict) -> None:
        try:
            self._log.append(record)
        except OSError as exc:
            raise JournalError(
                f"cannot append to run journal {self.path}: {exc}"
            ) from exc

    def record_point(
        self, key: str, value: Any, label: str = "", elapsed_s: float = 0.0
    ) -> bool:
        """Journal one completed point; returns False when the result is
        unpicklable (the point simply stays non-resumable)."""
        blob = pickle_blob(value)
        if blob is None:
            return False
        self._append(
            {
                "kind": "point",
                "key": key,
                "label": label,
                "status": "ok",
                "elapsed_s": elapsed_s,
                **encode_blob(blob),
            }
        )
        self._completed[key] = (value, elapsed_s)
        self._labels[key] = label
        self._failed.pop(key, None)
        return True

    def record_failure(self, key: str, error: str, label: str = "") -> None:
        """Journal one quarantined point (retried on the next resume)."""
        self._append(
            {
                "kind": "point",
                "key": key,
                "label": label,
                "status": "failed",
                "error": error,
            }
        )
        self._failed[key] = error
        self._labels[key] = label

    def record_end(self, status: str = "complete") -> None:
        """Mark the run finished (``repro perf runs`` shows it complete)."""
        self._append({"kind": "end", "status": status})
        self._complete = status == "complete"

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The active journal: how `repro bench` hands a journal to experiment
# functions without changing their signatures.
# ---------------------------------------------------------------------------

_ACTIVE_JOURNAL: RunJournal | None = None


def activate_journal(journal: RunJournal | None) -> None:
    """Install (or clear) the process-wide journal ``run_sweep`` uses by
    default.  The CLI activates the run's journal around the experiment
    call; library callers can also pass ``journal=`` explicitly."""
    global _ACTIVE_JOURNAL
    _ACTIVE_JOURNAL = journal


def current_journal() -> RunJournal | None:
    return _ACTIVE_JOURNAL


# ---------------------------------------------------------------------------
# Run listing (repro perf runs)
# ---------------------------------------------------------------------------


def list_runs(runs_dir: str | None = None) -> list[RunInfo]:
    """Summaries of every journaled run, newest first."""
    directory = runs_dir or default_runs_dir()
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    infos: list[RunInfo] = []
    for name in names:
        if not name.endswith(_RUN_SUFFIX):
            continue
        path = os.path.join(directory, name)
        info = RunInfo(run_id=name[: -len(_RUN_SUFFIX)], path=path)
        _scan_run(path, info)
        infos.append(info)
    infos.sort(key=lambda i: i.created_unix, reverse=True)
    return infos


def _scan_run(path: str, info: RunInfo) -> None:
    """Cheap single-pass scan of a journal file for listing purposes."""
    for record in read_records(path):
        kind = record.get("kind")
        if kind == "header":
            info.experiment = record.get("experiment", "")
            info.created_unix = float(record.get("created_unix", 0.0))
            info.mergeable = info.mergeable and _header_mergeable(record)
        elif kind == "point":
            if record.get("status") == "failed":
                info.points_failed += 1
            else:
                info.points_ok += 1
        elif kind == "end":
            info.complete = record.get("status") == "complete"


def _header_mergeable(header: dict) -> bool:
    """Whether a run header matches this schema and these model constants."""
    return (
        header.get("schema") == JOURNAL_SCHEMA_VERSION
        and header.get("model") == model_constants_fingerprint()
    )


def runs_report(runs_dir: str | None = None) -> str:
    """A human-readable table of journaled runs."""
    infos = list_runs(runs_dir)
    directory = runs_dir or default_runs_dir()
    lines = [f"runs directory: {directory}"]
    if not infos:
        lines.append("  (no journaled runs)")
        return "\n".join(lines)
    for info in infos:
        status = "complete" if info.complete else "partial"
        if not info.mergeable:
            status += ", stale-model"
        stamp = (
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(info.created_unix))
            if info.created_unix
            else "?"
        )
        lines.append(
            f"  {info.run_id}: {info.experiment or '?'} — "
            f"{info.points_ok} ok, {info.points_failed} failed "
            f"({status}, {stamp})"
        )
    lines.append("  resume with: python -m repro bench <experiment> --resume <run-id>")
    return "\n".join(lines)
