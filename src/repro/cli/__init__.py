"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's tables/figures and runs ad-hoc executions without
writing any code:

* ``table1`` — print the simulation parameters (Table 1);
* ``plan`` — print the Figure 5 QEP and its pipeline chains;
* ``fig6`` — the one-slowed-relation sweep (``--relation F`` for Fig. 7);
* ``fig8`` — the uniform-slowdown gain sweep;
* ``run`` — one execution of one strategy, with optional slow sources;
* ``metrics`` — run one strategy with telemetry and export the metrics,
  stall breakdown and decision log (JSON / CSV / Prometheus text);
* ``trace`` — run one strategy and write the Chrome timeline plus the
  decision audit log (the run's execution trace);
* ``live`` — SEQ vs DSE on the wall-clock execution backend: the
  modelled jittered sources, in real seconds; ``--serve`` exposes
  /metrics, /healthz and an SSE /stream while the run is in flight,
  ``--flight-dump`` (with ``--stall-after`` / ``--deadline``) arms the
  flight-recorder watchdog;
* ``serve`` — the always-on multi-tenant query service: one shared
  wall-clock kernel accepting JSON submissions over HTTP, with
  per-tenant priorities/quotas, a governed memory pool, SSE progress
  streaming and graceful SIGTERM drain;
* ``submit`` — POST one (or ``--count`` many) submissions to a serving
  daemon; ``--wait`` polls until they finish;
* ``watch`` — tail a daemon's SSE snapshot stream as JSON lines;
* ``top`` — terminal dashboard attached to a serving live run or a
  ``repro serve`` daemon (or ``--replay`` of a flight-recorder dump);
* ``multiquery`` — the Section 6 throughput experiment; ``--global-memory``
  sweeps mediator-wide memory pools (with ``--admission`` picking the
  queueing policy) to expose the throughput-vs-response-time tradeoff of
  resource governance;
* ``explain`` — record one run's causal span tree and print the
  attributed critical path (``--vs STRATEGY`` diffs two runs, ``--from``
  explains a saved span export).

Every sweep accepts ``--csv PATH`` to export the series for plotting,
and ``--jobs N`` / ``--cache-dir DIR`` / ``--no-cache`` to shard the
independent runs across worker processes and serve repeats from the
content-addressed run cache (results are identical to a serial run).

Each command is one module, ``repro.cli.<command>``: its
``add_arguments(parser)`` next to its ``run(args)`` handler.
:mod:`repro.cli.options` holds the options several commands share and
:mod:`repro.cli.runs` the one seeded run they build.  :func:`main`
imports only the module of the command it runs, so ``repro serve``
loads no sweep engine and ``repro submit`` no engine at all.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from types import ModuleType
from typing import NoReturn, Optional, Sequence

from repro.common.errors import ConfigurationError, PlanError

#: command -> its one-line help, in ``repro --help`` order.
COMMANDS = {
    "table1": "print Table 1 (simulation parameters)",
    "plan": "print the Figure 5 QEP",
    "fig6": "one slowed-down relation sweep (Figure 6; use --relation F "
            "for Figure 7)",
    "fig8": "uniform slowdown gain sweep (Figure 8)",
    "run": "run one strategy once",
    "metrics": "run one strategy with telemetry and export "
               "metrics/stalls/decisions",
    "trace": "run one strategy; write the Chrome timeline and print the "
             "decision audit log",
    "anatomy": "side-by-side response-time anatomy of strategies",
    "reproduce": "regenerate every table/figure into a directory",
    "live": "run strategies on the wall-clock backend (modelled jittered "
            "sources, in real seconds)",
    "serve": "run the always-on multi-tenant query service (JSON "
             "submissions over HTTP, SSE progress, graceful SIGTERM drain)",
    "history": "query a service telemetry archive offline (written by "
               "`repro serve --archive-dir`)",
    "submit": "POST query submissions to a serving daemon",
    "watch": "tail a daemon's SSE snapshot stream as JSON lines",
    "top": "terminal dashboard for a live run or daemon (attach to "
           "`repro live --serve` or `repro serve`)",
    "multiquery": "concurrent queries (Section 6 future work)",
    "explain": "record one run's span tree and print the attributed "
               "critical path (SEQ-vs-DSE diffs, saved span exports)",
}


class _Parser(argparse.ArgumentParser):
    """Usage errors argparse finds in the shape of every other: one
    ``error:`` line on stderr and exit 2, no usage block.  Subcommand
    parsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def command_module(command: str) -> ModuleType:
    """``repro.cli.<command>``: its ``add_arguments`` and ``run``."""
    return importlib.import_module(f"{__name__}.{command}")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser with every command's options, or with only
    ``command``'s (the others are listed by name and help, unconfigured,
    and their modules stay unimported)."""
    parser = _Parser(
        prog="repro",
        description="Reproduction of 'Dynamic Query Scheduling in Data "
                    "Integration Systems' (ICDE 2000)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        if command in (None, name):
            command_module(name).add_arguments(command_parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option but --help: a known first word
    # is the command, and only its module is imported.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return command_module(args.command).run(args)
    except (ConfigurationError, PlanError) as exc:
        # The one usage-error path: a bad option value, an unreadable
        # input file, an unreachable endpoint or an unbindable port is
        # one line and exit 2, not a traceback.  A run or submission
        # that fails returns 1 from its handler.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
