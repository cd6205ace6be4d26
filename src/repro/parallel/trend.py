"""Cross-PR benchmark regression tracking.

Every PR commits a ``BENCH_PR<n>.json`` report from :mod:`repro.parallel.
bench`.  This module turns that series into a guard and a trajectory:

* :func:`compare_reports` — compare a fresh report against a committed
  baseline, per derived metric, with a tolerance ("fail CI when the DQP
  batch loop got ≥10% slower than the last PR");
* :func:`load_bench_report` — read + sanity-check one committed report;
* :func:`trend_rows` / :func:`format_trend` — fold a whole directory of
  ``BENCH_PR*.json`` files into a per-metric trajectory table
  (``scripts/bench_trend.py`` is the CLI wrapper).

Comparison is per-metric *directional*: throughput metrics regress when
they drop, the warm-cache fraction regresses when it grows.  Absolute
rates are host-relative, so CI gates should use a loose tolerance —
the committed numbers come from developer machines, the gate only has
to catch order-of-magnitude slips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.common.errors import ConfigurationError
from repro.observability.export import load_json_document
from repro.parallel.bench import SUITE

#: the derived metrics the gate watches; True = higher is better.
TREND_METRICS: Dict[str, bool] = {
    "dqp_batches_per_sec": True,
    "kernel_events_per_sec": True,
    "parallel_speedup": True,
    "warm_cache_fraction": False,
    "service_qps": True,
    "service_p50_latency_s": False,
    "service_p99_latency_s": False,
    "service_worker_speedup": True,
}

#: metrics that only compare like-for-like: they depend on the sweep
#: shape (scale, repetitions, retrieval points), not just the host, so
#: when two reports were produced with different configs they are
#: reported but never gated.  The pure rate metrics stay gated — a
#: batches/sec collapse is a regression at any sweep size.
CONFIG_SENSITIVE_METRICS = frozenset(
    {"parallel_speedup", "warm_cache_fraction",
     # Service figures scale with the arrival schedule (submission
     # count, rate): only like-for-like runs are gate-worthy.
     "service_qps", "service_p50_latency_s", "service_p99_latency_s",
     "service_worker_speedup"})

_BENCH_GLOB = "BENCH_PR*.json"
_PR_NUMBER = re.compile(r"BENCH_PR(\d+)\.json$")


def parse_percent(text: str) -> float:
    """``"10%"`` or ``"0.10"`` -> 0.10 (a regression-budget fraction)."""
    text = text.strip()
    try:
        value = (float(text[:-1]) / 100.0 if text.endswith("%")
                 else float(text))
    except ValueError:
        raise ConfigurationError(
            f"expected a percentage like '10%' or a fraction like '0.1', "
            f"got {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(
            f"regression budget must be in [0%, 100%), got {text!r}")
    return value


def load_bench_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load one committed bench report, with friendly failure modes."""
    data: Dict[str, Any] = load_json_document(
        path, "bench report", keys=("derived",), suite=SUITE)
    return data


@dataclass(frozen=True)
class MetricComparison:
    """One derived metric, baseline vs current."""

    metric: str
    baseline: float
    current: float
    higher_is_better: bool
    #: an advisory comparison is shown but never gated (the two reports
    #: were produced with different sweep configs).
    advisory: bool = False

    @property
    def change_fraction(self) -> float:
        """Signed relative change; positive = improved."""
        if self.baseline == 0:
            return 0.0
        raw = (self.current - self.baseline) / self.baseline
        return raw if self.higher_is_better else -raw

    def regressed(self, budget: float) -> bool:
        return not self.advisory and self.change_fraction < -budget

    def row(self) -> List[str]:
        arrow = "+" if self.change_fraction >= 0 else ""
        cells = [self.metric, f"{self.baseline:,.2f}",
                 f"{self.current:,.2f}",
                 f"{arrow}{100 * self.change_fraction:.1f}%"]
        if self.advisory:
            cells.append("(advisory: configs differ)")
        return cells


def compare_reports(baseline: Dict[str, Any], current: Dict[str, Any],
                    max_regression: float) -> List[MetricComparison]:
    """Per-metric comparison of two reports.

    Returns every watched metric present in both reports; the caller
    gates on ``[c for c in comparisons if c.regressed(budget)]``.  When
    the two reports were produced with different sweep configs, the
    :data:`CONFIG_SENSITIVE_METRICS` come back advisory — displayed but
    exempt from the gate.
    """
    same_config = baseline.get("config") == current.get("config")
    comparisons = []
    for metric, higher_is_better in TREND_METRICS.items():
        base = baseline["derived"].get(metric)
        cur = current["derived"].get(metric)
        if base is None or cur is None:
            continue
        comparisons.append(MetricComparison(
            metric=metric, baseline=float(base), current=float(cur),
            higher_is_better=higher_is_better,
            advisory=(not same_config
                      and metric in CONFIG_SENSITIVE_METRICS)))
    return comparisons


def find_bench_reports(directory: Union[str, Path]) -> List[Path]:
    """All ``BENCH_PR*.json`` under ``directory``, sorted by PR number."""
    directory = Path(directory)

    def pr_number(path: Path) -> int:
        match = _PR_NUMBER.search(path.name)
        return int(match.group(1)) if match else -1

    return sorted((p for p in directory.glob(_BENCH_GLOB)
                   if _PR_NUMBER.search(p.name)), key=pr_number)


def trend_rows(paths: List[Path]) -> Dict[str, List[Optional[float]]]:
    """Per-metric value series across the PR sequence (None = absent)."""
    series: Dict[str, List[Optional[float]]] = {
        metric: [] for metric in TREND_METRICS}
    for path in paths:
        derived = load_bench_report(path)["derived"]
        for metric in TREND_METRICS:
            value = derived.get(metric)
            series[metric].append(float(value) if value is not None else None)
    return series


def format_trend(paths: List[Path]) -> str:
    """A fixed-width per-metric trajectory table across the PR series."""
    if not paths:
        return "no BENCH_PR*.json reports found"
    labels = [p.stem.replace("BENCH_", "") for p in paths]
    series = trend_rows(paths)
    width = max(len(m) for m in TREND_METRICS) + 2
    col = max(12, max(len(label) for label in labels) + 2)
    lines = ["bench trend (" + " -> ".join(labels) + ")", ""]
    lines.append("".ljust(width)
                 + "".join(label.rjust(col) for label in labels) + "  trend")
    for metric, higher_is_better in TREND_METRICS.items():
        values = series[metric]
        cells = "".join(("-".rjust(col) if value is None
                         else f"{value:,.2f}".rjust(col)) for value in values)
        present = [value for value in values if value is not None]
        if len(present) >= 2 and present[0]:
            change = (present[-1] - present[0]) / present[0]
            if not higher_is_better:
                change = -change
            trend = f"  {'+' if change >= 0 else ''}{100 * change:.1f}%"
        else:
            trend = "  n/a"
        lines.append(metric.ljust(width) + cells + trend)
    lines.append("")
    lines.append("(higher is better except warm_cache_fraction and the "
                 "service latencies; absolute rates are host-relative)")
    return "\n".join(lines)
