"""One-shot reproduction: regenerate every paper artifact into a directory.

``generate_all`` runs each experiment of the evaluation section (plus the
extensions) and writes a text report and one CSV per series — the whole
reproduction package in one call, scriptable via
``python -m repro reproduce --outdir results/``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional

from repro.config import SimulationParameters
from repro.experiments.multiquery import (
    ThroughputPoint,
    run_multiquery_experiment,
)
from repro.experiments.report import format_table, write_csv
from repro.experiments.slowdown import SlowdownPoint, run_slowdown_experiment
from repro.experiments.uniform_slowdown import (
    GainPoint,
    run_uniform_slowdown_experiment,
)
from repro.experiments.workloads import figure5_workload
from repro.parallel.engine import SweepRunner

#: default sweep points (the paper's ranges).
RETRIEVAL_TIMES = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
W_VALUES_US = [5, 10, 15, 20, 35, 50, 80, 120]

ProgressFn = Callable[[str], None]


def generate_all(outdir: "str | Path", *, scale: float = 1.0,
                 repetitions: int = 1, seed: int = 1,
                 params: Optional[SimulationParameters] = None,
                 progress: Optional[ProgressFn] = None,
                 runner: Optional[SweepRunner] = None) -> Path:
    """Regenerate Table 1 and Figures 5–8 (plus extensions) into ``outdir``.

    Returns the output directory.  ``scale`` shrinks the workload for
    quick runs; ``repetitions`` averages seeded repetitions as in the
    paper (3) — the default 1 keeps the full-scale run under a minute.
    ``runner`` shards the sweeps across worker processes and/or serves
    repeated points from the run cache (``repro reproduce --jobs N
    --cache-dir DIR``); results are identical to a serial run.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    params = params if params is not None else SimulationParameters()
    runner = runner if runner is not None else SweepRunner()
    workload = figure5_workload(scale=scale)
    say = progress if progress is not None else (lambda _msg: None)
    report: list[str] = []

    # Table 1 -----------------------------------------------------------
    say("table1")
    rows = [list(r) for r in params.table1_rows()]
    report.append(format_table(["Parameter", "Value"], rows,
                               title="Table 1: Simulation parameters"))
    write_csv(out / "table1.csv", ["parameter", "value"], rows)

    # Figure 5 ------------------------------------------------------------
    say("fig5")
    report.append("Figure 5 QEP (reconstruction):\n" + workload.qep.describe())

    # Figures 6 and 7 -----------------------------------------------------
    for relation, figure in (("A", "fig6"), ("F", "fig7")):
        say(figure)
        points = run_slowdown_experiment(
            workload, relation, RETRIEVAL_TIMES, params,
            repetitions=repetitions, base_seed=seed, runner=runner)
        rows = [p.row() for p in points]
        report.append(format_table(
            SlowdownPoint.HEADERS, rows,
            title=f"Figure {'6' if relation == 'A' else '7'}: "
                  f"one slowed-down relation ({relation})"))
        write_csv(out / f"{figure}.csv", SlowdownPoint.HEADERS, rows)

    # Figure 8 ------------------------------------------------------------
    say("fig8")
    points = run_uniform_slowdown_experiment(
        workload, [w * 1e-6 for w in W_VALUES_US], params,
        repetitions=repetitions, base_seed=seed, runner=runner)
    rows = [p.row() for p in points]
    report.append(format_table(GainPoint.HEADERS, rows,
                               title="Figure 8: DSE gain over SEQ vs w_min"))
    write_csv(out / "fig8.csv", GainPoint.HEADERS, rows)

    # Extension: multi-query ----------------------------------------------
    say("multiquery")
    multi_workload = (workload if scale <= 0.25
                      else figure5_workload(scale=0.2 * scale))
    multi = run_multiquery_experiment(
        multi_workload, ["SEQ", "DSE"],
        [params.w_min, 5 * params.w_min], params,
        num_queries=4, seed=seed, runner=runner)
    rows = [p.row() for p in multi]
    report.append(format_table(ThroughputPoint.HEADERS, rows,
                               title="Extension: 4 concurrent queries"))
    write_csv(out / "multiquery.csv", ThroughputPoint.HEADERS, rows)

    (out / "REPORT.txt").write_text("\n\n".join(report) + "\n")
    say("done")
    return out
