"""Durable telemetry archive: segmented, append-only JSONL on disk.

Everything the live service plane publishes is ephemeral — the latency
window, the recent-history ring, snapshots and the flight recorder all
vanish on restart.  The archive is the durable counterpart: an
append-only log of schema-versioned JSON records (one per line) that
survives restarts and answers "what did tenant gold's p99 look like
yesterday?" offline via ``repro history``.

Three layers:

* :class:`SegmentedLog` — the synchronous on-disk format: size/age-based
  segment rotation, gzip of sealed segments, retention by total bytes
  and age.  Fully deterministic (injectable clock) so rotation and
  retention are unit-testable without sleeping.
* :class:`TelemetryArchive` — the service-facing writer: a bounded
  drop-oldest queue drained by a background thread, so the kernel hot
  path pays one lock-guarded append and **never** blocks on disk.  When
  the queue is full the oldest record is shed and counted
  (:attr:`TelemetryArchive.dropped_total`) instead of stalling the
  publisher.
* :class:`ArchiveReader` — corruption-tolerant replay: segments are read
  in sequence order (gzip or plain), torn tails and alien lines are
  skipped with a count instead of aborting, so a crash mid-write never
  poisons the history.

Record layout (one JSON object per line)::

    {"v": 1, "kind": "outcome"|"snapshot"|"decision"|"span"|"alert",
     "t": <epoch seconds>, ...kind-specific payload}

``t`` is wall-clock epoch time so records from different service
incarnations order correctly across restarts.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
import zlib
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.common.errors import ConfigurationError

#: bump when the per-line record layout changes shape.
ARCHIVE_SCHEMA_VERSION = 1

#: record kinds the service writes.
RECORD_SNAPSHOT = "snapshot"
RECORD_OUTCOME = "outcome"
RECORD_DECISION = "decision"
RECORD_SPAN = "span"
RECORD_ALERT = "alert"

RECORD_KINDS = (RECORD_SNAPSHOT, RECORD_OUTCOME, RECORD_DECISION,
                RECORD_SPAN, RECORD_ALERT)

#: segment file naming: ``telemetry-000042.jsonl`` (active / crashed)
#: and ``telemetry-000042.jsonl.gz`` (sealed).
SEGMENT_PREFIX = "telemetry-"
SEGMENT_SUFFIX = ".jsonl"

#: rotation / retention defaults (overridable per archive).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
DEFAULT_SEGMENT_AGE_S = 15 * 60.0
DEFAULT_RETENTION_BYTES = 256 * 1024 * 1024
DEFAULT_RETENTION_AGE_S = 7 * 24 * 3600.0

#: records the hot path may queue before the oldest is shed.
DEFAULT_QUEUE_CAPACITY = 8192


def _segment_seq(path: Path) -> Optional[int]:
    """The sequence number encoded in a segment filename, else None."""
    name = path.name
    if name.endswith(".gz"):
        name = name[:-3]
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    stem = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    return int(stem) if stem.isdigit() else None


def list_segments(directory: Union[str, Path]) -> List[Path]:
    """Every segment file in ``directory``, oldest (lowest seq) first."""
    root = Path(directory)
    if not root.is_dir():
        return []
    found: List[Tuple[int, Path]] = []
    for path in root.iterdir():
        seq = _segment_seq(path)
        if seq is not None:
            found.append((seq, path))
    return [path for _seq, path in sorted(found)]


class SegmentedLog:
    """Synchronous segmented JSONL writer with rotation and retention.

    Not thread-safe on its own — :class:`TelemetryArchive` serializes
    access through its writer thread.  The active segment stays a plain
    ``.jsonl`` file (a crash leaves at worst one torn final line, which
    replay skips); sealed segments are gzipped in place.
    """

    def __init__(self, directory: Union[str, Path], *,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 max_segment_age_s: float = DEFAULT_SEGMENT_AGE_S,
                 retention_bytes: int = DEFAULT_RETENTION_BYTES,
                 retention_age_s: float = DEFAULT_RETENTION_AGE_S,
                 compress: bool = True,
                 clock: Callable[[], float] = time.time) -> None:
        if max_segment_bytes < 1:
            raise ConfigurationError(
                f"max_segment_bytes must be >= 1, got {max_segment_bytes}")
        if retention_bytes < max_segment_bytes:
            raise ConfigurationError(
                f"retention_bytes {retention_bytes} is smaller than one "
                f"segment ({max_segment_bytes}); the archive could never "
                f"keep anything")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self.max_segment_age_s = max_segment_age_s
        self.retention_bytes = retention_bytes
        self.retention_age_s = retention_age_s
        self.compress = compress
        self.clock = clock
        #: counters an operator (or `/healthz`) reads.
        self.records_written = 0
        self.segments_sealed = 0
        self.segments_deleted = 0
        self.last_write_at: Optional[float] = None
        existing = list_segments(self.directory)
        last = _segment_seq(existing[-1]) if existing else 0
        self._seq = (last or 0)
        self._active: Optional[IO[bytes]] = None
        self._active_path: Optional[Path] = None
        self._active_bytes = 0
        self._active_opened_at = 0.0

    # -- writing -------------------------------------------------------------
    def write(self, record: Dict[str, Any]) -> None:
        """Append one record (stamped with the schema version)."""
        line = json.dumps(dict(record, v=ARCHIVE_SCHEMA_VERSION),
                          sort_keys=True).encode("utf-8") + b"\n"
        now = self.clock()
        if self._active is None:
            self._open_next(now)
        elif (self._active_bytes + len(line) > self.max_segment_bytes
                or now - self._active_opened_at >= self.max_segment_age_s):
            self._seal_active()
            self._open_next(now)
        assert self._active is not None
        self._active.write(line)
        self._active_bytes += len(line)
        self.records_written += 1
        self.last_write_at = now

    def flush(self) -> None:
        if self._active is not None:
            self._active.flush()

    def close(self) -> None:
        """Flush and close the active segment *without* sealing it.

        The plain ``.jsonl`` tail stays readable; the next incarnation
        of the service opens a fresh segment after it.
        """
        if self._active is not None:
            self._active.flush()
            self._active.close()
            self._active = None
            self._active_path = None

    # -- rotation / retention ------------------------------------------------
    def _open_next(self, now: float) -> None:
        self._seq += 1
        self._active_path = (self.directory /
                             f"{SEGMENT_PREFIX}{self._seq:06d}{SEGMENT_SUFFIX}")
        self._active = open(self._active_path, "ab")
        self._active_bytes = 0
        self._active_opened_at = now

    def _seal_active(self) -> None:
        assert self._active is not None and self._active_path is not None
        self._active.flush()
        self._active.close()
        raw = self._active_path
        self._active = None
        self._active_path = None
        if self.compress:
            sealed = raw.with_suffix(raw.suffix + ".gz")
            with open(raw, "rb") as src, gzip.open(sealed, "wb") as dst:
                dst.write(src.read())
            raw.unlink()
        self.segments_sealed += 1
        self._apply_retention()

    def _apply_retention(self) -> None:
        """Delete the oldest sealed segments beyond the byte/age budget."""
        segments = list_segments(self.directory)
        if self._active_path is not None and segments \
                and segments[-1] == self._active_path:
            segments = segments[:-1]
        sizes = {path: path.stat().st_size for path in segments}
        total = sum(sizes.values())
        now = self.clock()
        for path in list(segments):
            too_old = (self.retention_age_s > 0
                       and now - path.stat().st_mtime > self.retention_age_s)
            too_big = total > self.retention_bytes
            if not (too_old or too_big):
                break  # oldest-first: once one survives, the rest do
            path.unlink()
            total -= sizes[path]
            segments.remove(path)
            self.segments_deleted += 1

    # -- introspection -------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """JSON-safe archive health for ``/healthz``."""
        segments = list_segments(self.directory)
        total = sum(path.stat().st_size for path in segments
                    if path.exists())
        return {
            "directory": str(self.directory),
            "segments": len(segments),
            "bytes": total,
            "records_written": self.records_written,
            "segments_sealed": self.segments_sealed,
            "segments_deleted": self.segments_deleted,
            "last_write_age_s": (self.clock() - self.last_write_at
                                 if self.last_write_at is not None else None),
        }


class TelemetryArchive:
    """Non-blocking archive writer for the service hot path.

    :meth:`append` is what the kernel loop calls: one lock-guarded queue
    append; when the bounded queue is full the *oldest* queued record is
    shed and counted so the archive can never exert backpressure on the
    scheduler.  A daemon thread drains the queue into a
    :class:`SegmentedLog`; disk errors are counted, never raised into
    the engine.
    """

    def __init__(self, directory: Union[str, Path], *,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 max_segment_age_s: float = DEFAULT_SEGMENT_AGE_S,
                 retention_bytes: int = DEFAULT_RETENTION_BYTES,
                 retention_age_s: float = DEFAULT_RETENTION_AGE_S,
                 compress: bool = True,
                 clock: Callable[[], float] = time.time) -> None:
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}")
        self.log = SegmentedLog(
            directory, max_segment_bytes=max_segment_bytes,
            max_segment_age_s=max_segment_age_s,
            retention_bytes=retention_bytes,
            retention_age_s=retention_age_s,
            compress=compress, clock=clock)
        self.queue_capacity = queue_capacity
        #: records shed because the writer fell behind the hot path.
        self.dropped_total = 0
        #: disk failures swallowed by the writer thread.
        self.write_errors = 0
        self._queue: Deque[Dict[str, Any]] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._idle = threading.Event()
        self._idle.set()
        self._thread = threading.Thread(target=self._drain_loop,
                                        name="telemetry-archive",
                                        daemon=True)
        self._thread.start()

    @property
    def directory(self) -> Path:
        return self.log.directory

    # -- hot path ------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> bool:
        """Queue one record; returns False when it was shed instead.

        Never blocks and never raises on a full queue — the one promise
        the kernel loop needs.
        """
        with self._cond:
            if self._closed:
                self.dropped_total += 1
                return False
            if len(self._queue) >= self.queue_capacity:
                self._queue.popleft()
                self.dropped_total += 1
                appended = False
            else:
                appended = True
            self._queue.append(record)
            self._idle.clear()
            self._cond.notify()
        return appended

    # -- writer thread -------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._idle.set()
                    self._cond.wait()
                if not self._queue and self._closed:
                    self._idle.set()
                    return
                batch = list(self._queue)
                self._queue.clear()
            for record in batch:
                try:
                    self.log.write(record)
                except OSError:
                    self.write_errors += 1
            try:
                self.log.flush()
            except OSError:
                self.write_errors += 1

    def close(self, timeout: float = 10.0) -> None:
        """Drain, stop the writer thread and close the log (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout)
        self.log.close()

    def stats(self) -> Dict[str, Any]:
        """Disk-free counters, safe on the kernel loop every tick."""
        with self._cond:
            queued = len(self._queue)
            dropped = self.dropped_total
        log = self.log
        return {
            "directory": str(log.directory),
            "queued": queued,
            "queue_capacity": self.queue_capacity,
            "dropped_total": dropped,
            "write_errors": self.write_errors,
            "records_written": log.records_written,
            "segments_sealed": log.segments_sealed,
            "segments_deleted": log.segments_deleted,
            "last_write_age_s": (log.clock() - log.last_write_at
                                 if log.last_write_at is not None else None),
        }

    def health(self) -> Dict[str, Any]:
        """Full health including on-disk totals (stat calls; HTTP threads)."""
        health = self.log.health()
        health.update(self.stats())
        return health


class ArchiveReader:
    """Corruption-tolerant replay over an archive directory.

    Iterates records in segment order; a line that fails to decode (the
    torn tail of a crashed segment, an alien file, a foreign schema
    version) is *skipped and counted*, never fatal.  After iteration,
    :attr:`skipped_lines` / :attr:`skipped_segments` say how much was
    lost and :attr:`segments_read` how much was covered.
    """

    def __init__(self, directory: Union[str, Path], *,
                 kinds: Optional[Iterable[str]] = None,
                 since: Optional[float] = None,
                 until: Optional[float] = None,
                 tenant: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.since = since
        self.until = until
        self.tenant = tenant
        self.segments_read = 0
        self.skipped_lines = 0
        self.skipped_segments = 0
        self.records_read = 0

    def _open(self, path: Path) -> IO[bytes]:
        if path.name.endswith(".gz"):
            return gzip.open(path, "rb")  # type: ignore[return-value]
        return open(path, "rb")

    def _wanted(self, record: Dict[str, Any]) -> bool:
        if record.get("v") != ARCHIVE_SCHEMA_VERSION:
            return False
        kind = record.get("kind")
        if self.kinds is not None and kind not in self.kinds:
            return False
        at = record.get("t")
        if not isinstance(at, (int, float)):
            return False
        if self.since is not None and at < self.since:
            return False
        if self.until is not None and at > self.until:
            return False
        if self.tenant is not None \
                and record.get("tenant") not in (self.tenant, None):
            return False
        return True

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        if not self.directory.is_dir():
            raise ConfigurationError(
                f"no archive directory at {self.directory}")
        for path in list_segments(self.directory):
            try:
                with self._open(path) as handle:
                    lines = handle.read().split(b"\n")
            except (OSError, EOFError, zlib.error):
                # A torn gzip (crash mid-seal) loses the segment, not
                # the archive.
                self.skipped_segments += 1
                continue
            self.segments_read += 1
            for line in lines:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    self.skipped_lines += 1
                    continue
                if not isinstance(record, dict):
                    self.skipped_lines += 1
                    continue
                if record.get("v") != ARCHIVE_SCHEMA_VERSION:
                    self.skipped_lines += 1
                    continue
                if self._wanted(record):
                    self.records_read += 1
                    yield record
