"""The durable telemetry archive: segments, rotation, retention, replay.

Everything here runs on an injected clock — rotation by age, retention
by age and the reader's time-range filters are exercised without a
single sleep.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.observability.archive import (
    ARCHIVE_SCHEMA_VERSION,
    RECORD_OUTCOME,
    ArchiveReader,
    SegmentedLog,
    TelemetryArchive,
    list_segments,
)
from repro.service.history import (
    diff_windows,
    load_outcomes,
    parse_window,
    resolve_time,
    slo_report,
    summarize_outcomes,
)
from repro.service.slo import SLOSpec


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def outcome(t: float, tenant: str = "gold", latency: float = 0.01,
            ok: bool = True, **extra: object) -> dict:
    record = {"kind": RECORD_OUTCOME, "t": t, "tenant": tenant,
              "latency_s": latency, "wait_s": 0.0, "ok": ok}
    record.update(extra)
    return record


# --------------------------------------------------------------------------
# SegmentedLog: rotation, sealing, retention
# --------------------------------------------------------------------------

def test_segments_rotate_by_size_and_seal_to_gzip(tmp_path):
    log = SegmentedLog(tmp_path, max_segment_bytes=120,
                      retention_bytes=1 << 20, clock=FakeClock())
    for i in range(10):
        log.write(outcome(float(i)))
    log.close()
    segments = list_segments(tmp_path)
    assert len(segments) > 1
    # All but the last (active) segment are sealed .gz files.
    assert all(p.name.endswith(".jsonl.gz") for p in segments[:-1])
    assert segments[-1].name.endswith(".jsonl")
    reader = ArchiveReader(tmp_path)
    records = list(reader)
    assert [r["t"] for r in records] == [float(i) for i in range(10)]
    assert reader.skipped_lines == 0


def test_segments_rotate_by_age(tmp_path):
    clock = FakeClock()
    log = SegmentedLog(tmp_path, max_segment_bytes=1 << 20,
                      max_segment_age_s=60.0, clock=clock)
    log.write(outcome(1.0))
    clock.advance(61.0)
    log.write(outcome(2.0))
    log.close()
    assert len(list_segments(tmp_path)) == 2


def test_retention_deletes_oldest_sealed_segments_by_bytes(tmp_path):
    log = SegmentedLog(tmp_path, max_segment_bytes=150,
                      retention_bytes=400, clock=FakeClock())
    for i in range(60):
        log.write(outcome(float(i)))
    log.close()
    assert log.segments_deleted > 0
    total = sum(p.stat().st_size for p in list_segments(tmp_path))
    # Retention keeps the total near the budget (the active segment and
    # the newest sealed segment always survive).
    assert total <= 400 + 150
    records = list(ArchiveReader(tmp_path))
    # Oldest records are gone, newest survive, order is preserved.
    times = [r["t"] for r in records]
    assert times == sorted(times)
    assert times[-1] == 59.0
    assert times[0] > 0.0


def test_retention_deletes_by_age(tmp_path):
    # Age retention keys off segment mtimes (the only timestamp that
    # survives a restart), so backdate a sealed segment instead of
    # advancing a fake clock.
    log = SegmentedLog(tmp_path, max_segment_bytes=100,
                      retention_bytes=1 << 20, retention_age_s=30.0)
    log.write(outcome(1.0))
    log.write(outcome(2.0))  # rotates: segment 1 sealed
    sealed = [p for p in list_segments(tmp_path) if p.name.endswith(".gz")]
    assert sealed
    stale = time.time() - 120.0
    os.utime(sealed[0], (stale, stale))
    log.write(outcome(3.0))  # rotates again -> retention runs
    log.close()
    records = list(ArchiveReader(tmp_path))
    assert 1.0 not in [r["t"] for r in records]
    assert 3.0 in [r["t"] for r in records]
    assert log.segments_deleted == 1


def test_bad_configuration_is_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        SegmentedLog(tmp_path, max_segment_bytes=0)
    with pytest.raises(ConfigurationError):
        SegmentedLog(tmp_path, max_segment_bytes=1 << 20,
                     retention_bytes=10)
    with pytest.raises(ConfigurationError):
        TelemetryArchive(tmp_path, queue_capacity=0)


# --------------------------------------------------------------------------
# Restart safety and corruption tolerance
# --------------------------------------------------------------------------

def test_restart_appends_a_new_segment_and_replays_everything(tmp_path):
    log = SegmentedLog(tmp_path, clock=FakeClock())
    log.write(outcome(1.0))
    log.write(outcome(2.0))
    log.close()  # SIGTERM drain: active segment stays a plain .jsonl

    reincarnation = SegmentedLog(tmp_path, clock=FakeClock())
    reincarnation.write(outcome(3.0))
    reincarnation.close()

    reader = ArchiveReader(tmp_path)

    records = list(reader)
    assert [r["t"] for r in records] == [1.0, 2.0, 3.0]
    assert reader.skipped_lines == 0
    assert len(list_segments(tmp_path)) == 2  # one per incarnation


def test_torn_final_line_is_skipped_with_a_count(tmp_path):
    log = SegmentedLog(tmp_path, clock=FakeClock())
    log.write(outcome(1.0))
    log.write(outcome(2.0))
    log.close()
    segment = list_segments(tmp_path)[-1]
    # Simulate a crash mid-write: the final line is half a record.
    with open(segment, "ab") as handle:
        handle.write(b'{"kind": "outcome", "t": 3.0, "tena')
    reader = ArchiveReader(tmp_path)
    records = list(reader)
    assert [r["t"] for r in records] == [1.0, 2.0]
    assert reader.skipped_lines == 1


def test_alien_lines_and_foreign_versions_are_skipped(tmp_path):
    (tmp_path / "telemetry-000001.jsonl").write_text(
        json.dumps(outcome(1.0, v=ARCHIVE_SCHEMA_VERSION)) + "\n"
        + "not json at all\n"
        + json.dumps({"kind": "outcome", "t": 2.0, "v": 999}) + "\n"
        + json.dumps(["a", "list", "not", "a", "record"]) + "\n"
        + json.dumps(outcome(3.0, v=ARCHIVE_SCHEMA_VERSION)) + "\n")
    reader = ArchiveReader(tmp_path)
    records = list(reader)
    assert [r["t"] for r in records] == [1.0, 3.0]
    assert reader.skipped_lines == 3


def test_torn_gzip_segment_loses_the_segment_not_the_archive(tmp_path):
    log = SegmentedLog(tmp_path, max_segment_bytes=100, clock=FakeClock())
    for i in range(6):
        log.write(outcome(float(i)))
    log.close()
    sealed = [p for p in list_segments(tmp_path)
              if p.name.endswith(".gz")]
    assert sealed
    # Truncate one sealed segment mid-stream: gzip can't finish it.
    data = sealed[0].read_bytes()
    sealed[0].write_bytes(data[: len(data) // 2])
    reader = ArchiveReader(tmp_path)
    records = list(reader)
    assert reader.skipped_segments == 1
    assert records  # the other segments still replay


def test_reader_requires_a_directory(tmp_path):
    with pytest.raises(ConfigurationError):
        list(ArchiveReader(tmp_path / "nope"))


def test_reader_filters_by_kind_time_and_tenant(tmp_path):
    log = SegmentedLog(tmp_path, clock=FakeClock())
    log.write(outcome(1.0, tenant="gold"))
    log.write(outcome(2.0, tenant="silver"))
    log.write({"kind": "snapshot", "t": 2.5})
    log.write(outcome(3.0, tenant="gold"))
    log.close()
    records = list(ArchiveReader(tmp_path, kinds=("outcome",),
                                 since=1.5, until=2.9, tenant="silver"))
    assert [r["t"] for r in records] == [2.0]
    snapshots = list(ArchiveReader(tmp_path, kinds=("snapshot",)))
    assert [r["t"] for r in snapshots] == [2.5]


# --------------------------------------------------------------------------
# TelemetryArchive: the bounded non-blocking writer
# --------------------------------------------------------------------------

def test_archive_writer_drains_the_queue_to_disk(tmp_path):
    archive = TelemetryArchive(tmp_path)
    for i in range(100):
        assert archive.append(outcome(float(i)))
    assert archive._idle.wait(10.0)
    archive.close()
    records = list(ArchiveReader(tmp_path))
    assert len(records) == 100
    assert archive.dropped_total == 0
    stats = archive.stats()
    assert stats["records_written"] == 100
    assert stats["dropped_total"] == 0


def test_full_queue_sheds_oldest_and_counts_instead_of_blocking(
        tmp_path, monkeypatch):
    archive = TelemetryArchive(tmp_path, queue_capacity=4)
    # Wedge the writer thread inside its first disk write so the queue
    # backs up deterministically (a slow disk, in miniature).
    entered, gate = threading.Event(), threading.Event()
    real_write = archive.log.write

    def slow_write(record):
        entered.set()
        gate.wait(timeout=30.0)
        real_write(record)

    monkeypatch.setattr(archive.log, "write", slow_write)
    assert archive.append(outcome(0.0)) is True
    assert entered.wait(timeout=30.0)  # writer is now stuck mid-write
    results = [archive.append(outcome(float(1 + i))) for i in range(10)]
    # Capacity 4: the first four queue, the next six each shed the
    # oldest queued record -- append never blocks and never raises.
    assert results == [True] * 4 + [False] * 6
    assert archive.dropped_total == 6
    gate.set()
    assert archive._idle.wait(30.0)
    archive.close()
    records = list(ArchiveReader(tmp_path))
    # The wedged record plus the four newest queued ones survived.
    assert [r["t"] for r in records] == [0.0, 7.0, 8.0, 9.0, 10.0]


def test_append_after_close_is_counted_as_a_drop(tmp_path):
    archive = TelemetryArchive(tmp_path, queue_capacity=8)
    archive.close()  # writer gone; queue is closed
    assert archive.append(outcome(1.0)) is False
    assert archive.dropped_total == 1


def test_disk_errors_are_counted_not_raised(tmp_path, monkeypatch):
    archive = TelemetryArchive(tmp_path)

    def explode(record):
        raise OSError("disk on fire")

    monkeypatch.setattr(archive.log, "write", explode)
    archive.append(outcome(1.0))
    archive._idle.wait(10.0)
    archive.close()
    assert archive.write_errors >= 1


def test_archive_health_reports_segments_and_write_age(tmp_path):
    clock = FakeClock()
    archive = TelemetryArchive(tmp_path, clock=clock)
    archive.append(outcome(1.0))
    archive._idle.wait(10.0)
    clock.advance(5.0)
    health = archive.health()
    assert health["segments"] == 1
    assert health["bytes"] > 0
    assert health["records_written"] == 1
    assert health["last_write_age_s"] == pytest.approx(5.0)
    assert health["dropped_total"] == 0
    archive.close()


# --------------------------------------------------------------------------
# Offline history queries
# --------------------------------------------------------------------------

def _write_outcomes(tmp_path, rows):
    log = SegmentedLog(tmp_path, clock=FakeClock())
    for row in rows:
        log.write(row)
    log.close()


def test_summarize_outcomes_recomputes_exact_percentiles(tmp_path):
    rows = [outcome(float(i), tenant=("gold" if i % 2 else "silver"),
                    latency=0.01 * (i + 1)) for i in range(100)]
    rows.append(outcome(100.0, ok=False, latency=9.9))
    _write_outcomes(tmp_path, rows)
    records, reader = load_outcomes(tmp_path)
    assert reader.skipped_lines == 0
    summary = summarize_outcomes(records)
    assert summary["outcomes"] == 101
    assert summary["completed"] == 100
    assert summary["failed"] == 1
    # Nearest-rank percentiles over the 100 finished latencies
    # 0.01..1.00 (the failed outcome's 9.9s must be excluded): rank
    # ceil(p * 100), so p95 is the 95th value and p99 the 99th.
    assert summary["latency"]["p50_s"] == pytest.approx(0.50)
    assert summary["latency"]["p95_s"] == pytest.approx(0.95)
    assert summary["latency"]["p99_s"] == pytest.approx(0.99)
    assert summary["latency"]["max_s"] == pytest.approx(1.00)
    assert set(summary["tenants"]) == {"gold", "silver"}
    assert summary["throughput_qps"] > 0


def test_load_outcomes_time_and_tenant_filters(tmp_path):
    _write_outcomes(tmp_path, [outcome(float(i), tenant="gold")
                               for i in range(10)]
                    + [outcome(20.0, tenant="silver")])
    records, _ = load_outcomes(tmp_path, since=3.0, until=7.0)
    assert [r["t"] for r in records] == [3.0, 4.0, 5.0, 6.0, 7.0]
    records, _ = load_outcomes(tmp_path, tenant="silver")
    assert [r["t"] for r in records] == [20.0]


def test_slo_report_compliance_and_budget(tmp_path):
    rows = [outcome(float(i), latency=0.01) for i in range(99)]
    rows.append(outcome(99.0, latency=5.0))  # one breach
    _write_outcomes(tmp_path, rows)
    records, _ = load_outcomes(tmp_path)
    spec = SLOSpec.parse("gold:p99<=1s@99.5%")
    report = slo_report(records, [spec])
    assert report[0]["events"] == 100
    assert report[0]["bad"] == 1
    assert report[0]["compliance"] == pytest.approx(0.99)
    assert report[0]["met"] is False  # 99% < 99.5% target
    assert report[0]["budget_spent"] == pytest.approx(2.0)
    with pytest.raises(ConfigurationError):
        slo_report(records, [])


def test_parse_window_and_resolve_time():
    assert resolve_time(None) is None
    assert resolve_time(100.0, now=50.0) == 100.0
    assert resolve_time(-10.0, now=50.0) == 40.0
    assert parse_window("10..20", now=100.0) == (10.0, 20.0)
    assert parse_window("-60..0", now=100.0) == (40.0, 100.0)
    with pytest.raises(ConfigurationError):
        parse_window("20..10", now=100.0)
    with pytest.raises(ConfigurationError):
        parse_window("nonsense", now=100.0)


def test_diff_windows_reports_latency_regression(tmp_path):
    rows = [outcome(float(i), latency=0.010) for i in range(50)]
    rows += [outcome(float(100 + i), latency=0.020) for i in range(50)]
    _write_outcomes(tmp_path, rows)
    diff = diff_windows(tmp_path, "0..50", "100..150", now=0.0)
    assert diff["window_a"]["summary"]["outcomes"] == 50
    assert diff["window_b"]["summary"]["outcomes"] == 50
    p99 = diff["deltas"]["p99_s"]
    assert p99["delta"] == pytest.approx(0.010)
    assert p99["ratio"] == pytest.approx(2.0)
