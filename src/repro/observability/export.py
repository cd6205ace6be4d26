"""Telemetry exporters, and the one writer of each output format.

The run-level exporters (JSON, CSV, Prometheus text) render the same
*snapshot* — a plain-data dict built by :func:`telemetry_snapshot` from
an :class:`ExecutionResult` — so the JSON export round-trips exactly:
``load_metrics_json(path)`` returns the snapshot that was written.

This module is also the only place that knows three wire formats, so
every other telemetry channel is a list of *what* to emit, not *how*:

* JSON documents — :func:`write_json_document` /
  :func:`load_json_document` (sorted keys out; one-line
  :class:`ConfigurationError` in, with the version check);
* the Prometheus text exposition — :class:`PrometheusText` and
  :func:`prom_labels` (the run, live and service expositions);
* Chrome trace events — :func:`trace_span_event`,
  :func:`trace_instant_event`, :func:`trace_thread_name`,
  :func:`trace_flow_events` and :func:`write_trace_document` (the
  flight, span and fragment timelines).
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Union

from repro.common.errors import ConfigurationError

#: snapshot format version, bumped on incompatible layout changes.
SNAPSHOT_VERSION = 1

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def telemetry_snapshot(result: Any) -> dict[str, Any]:
    """Plain-data snapshot of one execution's telemetry.

    ``result`` is an :class:`~repro.core.engine.ExecutionResult`; the
    snapshot contains only JSON-native types (dict/list/str/number/None)
    so every exporter — and the JSON round-trip — sees the same values.
    """
    metrics = result.metrics.as_dict() if result.metrics is not None else {}
    return {
        "version": SNAPSHOT_VERSION,
        "strategy": result.strategy,
        "response_time": result.response_time,
        "result_tuples": result.result_tuples,
        "stall_time": result.stall_time,
        "stall_breakdown": dict(result.stall_breakdown),
        "decisions": [record.to_dict() for record in result.decisions],
        "samples": [sample.to_dict() for sample in result.samples],
        "metrics": metrics,
    }


# -- JSON documents ---------------------------------------------------------
def write_json_document(payload: Any, path: Union[str, Path]) -> Path:
    """Write ``payload`` as indented, key-sorted JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_json_document(path: Union[str, Path], what: str,
                       keys: Iterable[str] = (), **expected: Any) -> Any:
    """Load a JSON file this program wrote, or fail with one line.

    ``what`` names the document in the message ("span export").  When
    ``keys`` or ``expected`` are given the document must be an object
    holding every key and exactly the expected values (``version=1``).
    Raises :class:`ConfigurationError` on a missing, truncated, alien or
    wrong-version file, so callers (the CLI) can print it and exit 2.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"{what} not found: {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"unreadable {what} {path}: {exc}") from None
    required = list(keys) + list(expected)
    if required and not (
            isinstance(data, dict)
            and all(key in data for key in required)
            and all(data[key] == value for key, value in expected.items())):
        wanted = ", ".join(f"{key} {value!r}"
                           for key, value in expected.items())
        raise ConfigurationError(
            f"{path} is not a {what}" + (f" ({wanted} expected)"
                                         if wanted else ""))
    return data


def write_metrics_json(snapshot: dict[str, Any],
                       path: Union[str, Path]) -> Path:
    return write_json_document(snapshot, path)


def load_metrics_json(path: Union[str, Path]) -> dict[str, Any]:
    """Load a snapshot written by :func:`write_metrics_json`."""
    data: dict[str, Any] = load_json_document(
        path, "metrics export", keys=("metrics", "strategy"),
        version=SNAPSHOT_VERSION)
    return data


# -- CSV --------------------------------------------------------------------
def write_metrics_csv(snapshot: dict[str, Any],
                      path: Union[str, Path]) -> Path:
    """Tidy-format CSV: one ``section,name,field,value`` row per scalar."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["section", "name", "field", "value"])
        writer.writerow(["run", "strategy", "value", snapshot["strategy"]])
        writer.writerow(["run", "response_time", "seconds",
                         snapshot["response_time"]])
        writer.writerow(["run", "stall_time", "seconds",
                         snapshot["stall_time"]])
        for cause, seconds in sorted(snapshot["stall_breakdown"].items()):
            writer.writerow(["stall", cause, "seconds", seconds])
        for name, data in sorted(snapshot["metrics"].items()):
            for key, value in sorted(data.items()):
                if key in ("kind", "buckets", "counts"):
                    continue
                writer.writerow(["metric", name, key, value])
        for record in snapshot["decisions"]:
            writer.writerow(["decision", record["kind"], "subject",
                             record["subject"]])
            writer.writerow(["decision", record["kind"], "time",
                             record["time"]])
    return path


# -- Prometheus-style text --------------------------------------------------
def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _prom_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def prom_float(value: float) -> str:
    """Sample values of the live expositions: always a float literal."""
    return repr(float(value))


def prom_labels(**labels: Any) -> str:
    """``{name="value",...}`` with the text format's label escaping."""
    def escaped(value: Any) -> str:
        return str(value).replace("\\", r"\\").replace('"', r'\"')

    return "{" + ",".join(f'{name}="{escaped(value)}"'
                          for name, value in labels.items()) + "}"


class PrometheusText:
    """Accumulates metric families in the text exposition format.

    ``number`` formats sample values: the offline run export keeps ints
    as ints (:func:`_prom_number`), the live ones pass
    :func:`prom_float`.
    """

    def __init__(self,
                 number: Callable[[Any], str] = _prom_number) -> None:
        self._lines: list[str] = []
        self._number = number

    def emit(self, name: str, kind: str, help_text: str,
             samples: Iterable[tuple[str, Any]]) -> None:
        """One family: ``samples`` are (name suffix incl. labels, value)."""
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")
        for suffix, value in samples:
            self._lines.append(f"{name}{suffix} {self._number(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def prometheus_text(snapshot: dict[str, Any]) -> str:
    """Render the snapshot in the Prometheus text exposition format.

    Times are *virtual* seconds — the exposition is for offline
    inspection and dashboard ingestion, not live scraping.
    """
    text = PrometheusText()
    emit = text.emit
    emit("repro_response_time_seconds", "gauge",
         "Query response time (virtual seconds).",
         [("", snapshot["response_time"])])
    emit("repro_stall_seconds_total", "counter",
         "Engine idle time by attributed cause (virtual seconds).",
         [(prom_labels(cause=cause), seconds)
          for cause, seconds in sorted(snapshot["stall_breakdown"].items())])
    kinds: dict[str, int] = {}
    for record in snapshot["decisions"]:
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
    emit("repro_decisions_total", "counter",
         "Scheduler decisions recorded in the audit log.",
         [(prom_labels(kind=kind), count)
          for kind, count in sorted(kinds.items())])

    for name, data in sorted(snapshot["metrics"].items()):
        prom = _prom_name(name)
        if data["kind"] == "counter":
            emit(prom, "counter", f"Counter {name}.", [("", data["value"])])
        elif data["kind"] == "gauge":
            emit(prom, "gauge", f"Gauge {name}.", [("", data["value"])])
        elif data["kind"] == "histogram":
            samples: list[tuple[str, Any]] = []
            cumulative = 0
            for bound, count in zip(data["buckets"], data["counts"]):
                cumulative += count
                samples.append(
                    ("_bucket" + prom_labels(le=_prom_number(bound)),
                     cumulative))
            samples.append(('_bucket{le="+Inf"}', data["count"]))
            samples.append(("_sum", data["sum"]))
            samples.append(("_count", data["count"]))
            emit(prom, "histogram", f"Histogram {name}.", samples)
    return text.render()


def write_metrics_prometheus(snapshot: dict[str, Any],
                             path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(prometheus_text(snapshot), encoding="utf-8")
    return path


# -- Chrome trace events ----------------------------------------------------
_SECONDS_TO_US = 1e6


def trace_span_event(name: str, cat: str, start: float, duration: float,
                     tid: int, args: dict[str, Any]) -> dict[str, Any]:
    """A complete ("X") event; times in seconds, at least 1 µs wide."""
    return {"name": name, "cat": cat, "ph": "X",
            "ts": start * _SECONDS_TO_US,
            "dur": max(1.0, duration * _SECONDS_TO_US),
            "pid": 1, "tid": tid, "args": args}


def trace_instant_event(name: str, cat: str, time: float, tid: int,
                        args: dict[str, Any],
                        scope: str = "t") -> dict[str, Any]:
    """An instant ("i") event, thread-scoped unless ``scope="g"``."""
    return {"name": name, "cat": cat, "ph": "i", "s": scope,
            "ts": time * _SECONDS_TO_US, "pid": 1, "tid": tid, "args": args}


def trace_thread_name(tid: int, name: str) -> dict[str, Any]:
    """The metadata ("M") event that labels lane ``tid``."""
    return {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name}}


def trace_flow_events(flow_id: int, cause_time: float, cause_tid: int,
                      time: float, tid: int) -> list[dict[str, Any]]:
    """The "s"/"f" pair that draws a caused-by arrow between two lanes."""
    return [
        {"name": "caused-by", "cat": "causality", "ph": "s", "id": flow_id,
         "ts": cause_time * _SECONDS_TO_US, "pid": 1, "tid": cause_tid},
        {"name": "caused-by", "cat": "causality", "ph": "f", "bp": "e",
         "id": flow_id, "ts": time * _SECONDS_TO_US, "pid": 1, "tid": tid},
    ]


def write_trace_document(path: Union[str, Path],
                         events: list[dict[str, Any]],
                         other_data: Optional[dict[str, Any]] = None) -> Path:
    """Write ``events`` as a ``chrome://tracing`` / Perfetto JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document: dict[str, Any] = {"traceEvents": events,
                                "displayTimeUnit": "ms"}
    if other_data is not None:
        document["otherData"] = other_data
    path.write_text(json.dumps(document, default=str) + "\n",
                    encoding="utf-8")
    return path
