"""Tests for the command-line interface and CSV export."""

import csv
import json
import time

import pytest

from repro.cli import build_parser, main
from repro.experiments.report import write_csv


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------

def test_write_csv_roundtrip(tmp_path):
    target = tmp_path / "out" / "series.csv"
    written = write_csv(target, ["a", "b"], [["1", "2"], ["3", "4"]])
    assert written.exists()
    with written.open() as handle:
        rows = list(csv.reader(handle))
    assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]


def test_write_csv_rejects_ragged(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a", "b"], [["1"]])


def usage_error(capsys, argv):
    """Run ``repro ARGV``; assert the one usage-error shape (one
    ``error:`` line on stderr, exit 2) and return that line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_accepts_all_commands():
    parser = build_parser()
    for argv in [["table1"], ["plan"], ["fig6"], ["fig8"],
                 ["run"], ["live"], ["multiquery"]]:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


# --------------------------------------------------------------------------
# Commands (tiny scales so they run in milliseconds)
# --------------------------------------------------------------------------

def test_cmd_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "CPU Speed" in out and "100 Mips" in out


def test_cmd_plan(capsys):
    assert main(["plan", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "pA: scan(A)" in out
    assert "blocking" in out


def test_cmd_fig6(capsys, tmp_path):
    target = tmp_path / "fig6.csv"
    assert main(["fig6", "--scale", "0.02", "--retrieval-times", "0.1",
                 "--csv", str(target)]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert target.exists()


def test_cmd_fig6_relation_f_is_fig7(capsys):
    assert main(["fig6", "--scale", "0.02", "--relation", "F",
                 "--retrieval-times", "0.1"]) == 0
    assert "Figure 7" in capsys.readouterr().out


def test_cmd_fig8(capsys, tmp_path):
    target = tmp_path / "fig8.csv"
    assert main(["fig8", "--scale", "0.02", "--waits-us", "10", "40",
                 "--csv", str(target)]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out
    with target.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["w_min_us", "SEQ_s", "DSE_s", "gain_pct", "LWB_s"]
    assert len(rows) == 3


def test_cmd_fig8_repetitions_report_the_mean_of_the_seeded_runs(
        capsys, tmp_path):
    """``--repetitions 2 --seed 3`` reports the mean of the runs seeded 3
    and 4, each on fresh delay models."""
    from repro.config import SimulationParameters
    from repro.experiments import figure5_workload
    from repro.experiments.runner import run_once
    from repro.wrappers import UniformDelay

    target = tmp_path / "fig8.csv"
    assert main(["fig8", "--scale", "0.05", "--waits-us", "200",
                 "--repetitions", "2", "--seed", "3",
                 "--csv", str(target)]) == 0
    capsys.readouterr()
    with target.open() as handle:
        row = dict(zip(*csv.reader(handle)))
    workload = figure5_workload(scale=0.05)
    params = SimulationParameters().with_overrides(w_min=200e-6)
    for strategy in ("SEQ", "DSE"):
        seeded = [run_once(workload.catalog, workload.qep, strategy,
                           lambda: {name: UniformDelay(200e-6)
                                    for name in workload.relation_names},
                           params, seed=seed).response_time
                  for seed in (3, 4)]
        mean = f"{sum(seeded) / 2:.3f}"
        assert row[f"{strategy}_s"] == mean
        # Distinct at the printed precision: a single run would not pass.
        assert mean not in {f"{seconds:.3f}" for seconds in seeded}


def test_cmd_run(capsys):
    assert main(["run", "--scale", "0.02", "--strategy", "SEQ"]) == 0
    out = capsys.readouterr().out
    assert "SEQ:" in out and "LWB" in out


def test_cmd_run_with_slow_source(capsys):
    assert main(["run", "--scale", "0.02", "--strategy", "DSE",
                 "--slow", "F:10", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "DSE:" in out


def test_cmd_run_bad_slow_spec(capsys):
    assert "bad --slow spec 'nonsense'" in usage_error(
        capsys, ["run", "--scale", "0.02", "--slow", "nonsense"])


def test_cmd_run_unknown_relation(capsys):
    assert "unknown relation(s) in --slow: ['Z']" in usage_error(
        capsys, ["run", "--scale", "0.02", "--slow", "Z:10"])


def test_cmd_run_dphj(capsys):
    assert main(["run", "--scale", "0.02", "--strategy", "DPHJ"]) == 0
    out = capsys.readouterr().out
    assert "DPHJ:" in out and "peak" in out


def test_cmd_run_with_error_and_reopt(capsys):
    assert main(["run", "--scale", "0.02", "--strategy", "SEQ",
                 "--error", "J1:3", "--reopt"]) == 0
    out = capsys.readouterr().out
    assert "misestimates detected" in out
    assert "joins swapped" in out


def test_cmd_run_unknown_error_join(capsys):
    assert "unknown joins: ['J9']" in usage_error(
        capsys, ["run", "--scale", "0.02", "--error", "J9:3"])


@pytest.mark.parametrize("factor", ["nan", "inf", "-1"])
def test_a_bad_error_factor_exits_2_in_one_line(factor, capsys):
    """A non-finite factor was an int() traceback, a negative one a run
    with a negative actual cardinality."""
    err = usage_error(capsys, ["run", "--scale", "0.02", "--strategy", "SEQ",
                               "--error", f"J1:{factor}"])
    assert err == (f"error: actual_output_factors must be finite and >= 0, "
                   f"got {{'J1': {float(factor)}}}\n")


def test_cmd_fig6_unknown_relation(capsys):
    assert "unknown relation 'Z'" in usage_error(
        capsys, ["fig6", "--scale", "0.02", "--relation", "Z",
                 "--retrieval-times", "0.1"])


@pytest.mark.parametrize("argv, message", [
    (["fig6", "--retrieval-times", "0.1", "-1"],
     "retrieval times must be finite and >= 0, got [-1.0]"),
    (["fig6", "--retrieval-times", "nan"],
     "retrieval times must be finite and >= 0, got [nan]"),
    (["fig8", "--repetitions", "0"], "repetitions must be >= 1, got 0"),
    (["fig8", "--jobs", "-1"], "jobs must be >= 1 (or 0 = auto), got -1"),
    (["explain", "--segments", "-1"], "--segments must be >= 0, got -1"),
    (["submit", "--connect", "127.0.0.1:1", "--count", "0"],
     "--count must be >= 1, got 0"),
    (["watch", "--connect", "127.0.0.1:1", "--frames", "-1"],
     "--frames must be >= 0, got -1"),
], ids=["retrieval-negative", "retrieval-nan", "repetitions-0", "jobs-neg",
        "segments-neg", "count-0", "frames-neg"])
def test_a_value_below_its_floor_exits_2_before_any_work(argv, message,
                                                         capsys, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    scale = ["--scale", "0.02"] if command in ("fig6", "fig8",
                                               "explain") else []
    assert usage_error(capsys, [command, *scale, *flags]) == \
        f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_cmd_multiquery(capsys):
    assert main(["multiquery", "--scale", "0.02", "--queries", "2",
                 "--waits-us", "20"]) == 0
    out = capsys.readouterr().out
    assert "concurrent queries" in out


def test_cmd_live_runs_both_strategies(capsys):
    # Tiny and fast sources: this hits the real asyncio backend but only
    # for a fraction of a second of wall clock.
    assert main(["live", "--scale", "0.005", "--wait-us", "30",
                 "--slow", "A:5", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "SEQ:" in out and "DSE:" in out
    assert "DSE vs SEQ:" in out
    assert "stalls:" in out


@pytest.mark.parametrize("interval, sampled", [("0", False),
                                               ("0.001", True)])
def test_cmd_live_sample_interval_sets_the_sampler(interval, sampled,
                                                   monkeypatch):
    from repro.exec.live import LiveQueryEngine

    results = []
    run = LiveQueryEngine.run

    async def recorded(engine):
        results.append(await run(engine))
        return results[-1]

    monkeypatch.setattr(LiveQueryEngine, "run", recorded)
    assert main(["live", "--scale", "0.005", "--wait-us", "30",
                 "--strategy", "DSE", "--sample-interval", interval]) == 0
    (result,) = results
    assert bool(result.samples) is sampled


@pytest.mark.parametrize("command", ["live", "metrics"])
@pytest.mark.parametrize("interval", ["-5", "nan"])
def test_a_bad_sample_interval_exits_2_in_one_line(command, interval,
                                                   capsys):
    assert main([command, "--scale", "0.005",
                 "--sample-interval", interval]) == 2
    err = capsys.readouterr().err
    assert "telemetry_sample_interval must be >= 0" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    "plan", "fig6", "fig8", "run", "metrics", "trace", "anatomy", "live",
    "multiquery", "explain", "reproduce"])
@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_a_bad_scale_exits_2_in_one_line(command, scale, capsys, tmp_path,
                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--scale", scale]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scale must be") and err.count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    (["--jitter", "2"], "--jitter must be in [0, 1], got 2.0"),
    (["--jitter", "nan"], "--jitter must be in [0, 1], got nan"),
    (["--wait-us", "nan"], "--wait-us must be finite and >= 0, got nan"),
    (["--wait-us", "-1"], "--wait-us must be finite and >= 0, got -1.0"),
    (["--stall-after", "nan", "--flight-dump", "F"],
     "--stall-after must be positive and finite, got nan"),
    (["--deadline", "inf", "--flight-dump", "F"],
     "--deadline must be positive and finite, got inf"),
])
def test_a_bad_live_flag_exits_2_in_one_line_before_any_run(
        flags, message, capsys, tmp_path, monkeypatch):
    from repro.exec.live import LiveQueryEngine

    def no_run(engine):
        raise AssertionError("a run started")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(LiveQueryEngine, "run", no_run)
    assert main(["live", "--scale", "0.005", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("command, flag", [
    ("run", "--strategy"), ("metrics", "--strategy"), ("trace", "--strategy"),
    ("anatomy", "--strategies"), ("live", "--strategy"),
    ("multiquery", "--strategies"), ("explain", "--strategy")])
def test_an_unknown_strategy_exits_2_in_one_line(command, flag, capsys,
                                                 tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--scale", "0.005", flag, "TURBO"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: unknown strategy 'TURBO'; choose from "
                            "['DSE', 'DSE-ND', 'MA', 'SEQ']\n")
    assert list(tmp_path.iterdir()) == []


def test_a_port_that_cannot_be_bound_exits_2_before_serving(capsys,
                                                            monkeypatch):
    """``serve`` binds before its service starts, so nothing is left
    running; ``live --serve`` fails before its first run."""
    import socket

    from repro.service import QueryService

    async def no_start(service):
        raise AssertionError("the service started")

    monkeypatch.setattr(QueryService, "start", no_start)
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        busy = str(held.getsockname()[1])
        for argv, message in (
                (["serve", "--port", "70000"],
                 "port must be in 0..65535, got 70000"),
                (["serve", "--port", busy], f"cannot bind 127.0.0.1:{busy}"),
                (["live", "--scale", "0.005", "--strategy", "DSE",
                  "--serve", busy], f"cannot bind 127.0.0.1:{busy}")):
            assert usage_error(capsys, argv).startswith(f"error: {message}")


def test_a_port_that_cannot_be_bound_leaves_no_archive_behind(capsys,
                                                              tmp_path):
    """The archive directory is made when the service opens, after the
    bind: a ``serve`` that cannot have its port creates nothing."""
    import socket

    archive = tmp_path / "archive"
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        busy = str(held.getsockname()[1])
        assert usage_error(capsys, [
            "serve", "--port", busy, "--archive-dir", str(archive),
        ]).startswith(f"error: cannot bind 127.0.0.1:{busy}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["anatomy", "--strategies"],
     "argument --strategies: expected at least one argument"),
    (["run", "--scale", "abc"], "argument --scale: invalid float value: 'abc'"),
], ids=["missing-value", "not-a-number"])
def test_an_option_argparse_refuses_is_one_line(argv, message, capsys):
    """What argparse itself refuses has the shape of every other usage
    error: one ``error:`` line on stderr, no usage block, exit 2."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--tenant", "gold:x"], "bad tenant spec 'gold:x'; expected "
                             "NAME[:PRIORITY[:MAX_ACTIVE[:MEMORY]]]"),
    (["--tenant", "gold:1:two"], "bad tenant spec 'gold:1:two'"),
    (["--tenant", "gold:nan"],
     "tenant 'gold': priority must be a finite number, got nan"),
    (["--tenant", "gold:1:2:bogus"], "bad tenant memory size 'bogus'"),
    (["--publish-interval", "nan"],
     "publish interval must be positive and finite, got nan"),
], ids=["priority-text", "max-active-text", "priority-nan", "memory-text",
        "publish-nan"])
def test_a_bad_serve_flag_exits_2_before_serving(flags, message, capsys):
    # --port 70000 is refused too, after these: were a check missing,
    # the test fails on that message instead of serving forever.
    assert usage_error(capsys, ["serve", "--port", "70000", *flags]) \
        .startswith(f"error: {message}")


def test_cmd_live_unknown_relation(capsys):
    assert "unknown relation(s) in --slow: ['Z']" in usage_error(
        capsys, ["live", "--scale", "0.005", "--slow", "Z:10"])


def test_cmd_live_assert_needs_both_strategies(capsys):
    assert "--assert-dse-not-slower needs both SEQ and DSE" in usage_error(
        capsys, ["live", "--scale", "0.005", "--strategy", "dse",
                 "--assert-dse-not-slower"])


# --------------------------------------------------------------------------
# Parallel sweeps
# --------------------------------------------------------------------------

def test_cmd_fig6_parallel_and_cached_match_serial(capsys, tmp_path):
    argv = ["fig6", "--scale", "0.02", "--retrieval-times", "0.1", "0.2"]
    assert main(argv) == 0
    serial_out = capsys.readouterr().out

    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial_out

    cache = str(tmp_path / "cache")
    assert main(argv + ["--cache-dir", cache]) == 0
    assert capsys.readouterr().out == serial_out
    assert main(argv + ["--cache-dir", cache]) == 0  # warm
    assert capsys.readouterr().out == serial_out
    assert main(argv + ["--cache-dir", cache, "--no-cache"]) == 0
    assert capsys.readouterr().out == serial_out


def test_cmd_multiquery_accepts_jobs(capsys):
    assert main(["multiquery", "--scale", "0.02", "--queries", "2",
                 "--waits-us", "20", "--jobs", "2"]) == 0
    assert "concurrent queries" in capsys.readouterr().out


def test_cmd_multiquery_inter_arrival_staggers_the_batch(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["multiquery", "--scale", "0.02", "--queries", "3",
                 "--strategies", "DSE", "--waits-us", "20",
                 "--inter-arrival", "0.5", "--csv", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    # The last of 3 queries arrives at 2 x 0.5 s and then runs.
    assert float(row["makespan_s"]) > (3 - 1) * 0.5


def test_cmd_multiquery_chain_that_outgrows_its_lease_fails_in_one_line(
        capsys):
    """Every option is valid, so the run starts; a chain that cannot fit
    the memory its lease reached then fails the run: one ``FAIL:`` line
    on stderr and exit 1, no traceback."""
    assert main(["multiquery", "--scale", "0.05", "--queries", "3",
                 "--strategies", "DSE", "--waits-us", "20",
                 "--global-memory", "896K", "--admission", "fifo",
                 "--query-memory", "128K", "--min-memory", "128K",
                 "--max-memory", "2M"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("FAIL: pipeline chain 'pF' needs 240000 bytes "
                            "but only 11072 are available\n")
    assert "Traceback" not in captured.out


def test_memory_overflow_error_crosses_a_process_pool():
    """``--jobs N`` re-raises a worker's error in the parent: it must
    unpickle with its fields (it broke the pool instead)."""
    import pickle

    from repro.common.errors import MemoryOverflowError

    error = pickle.loads(pickle.dumps(MemoryOverflowError("pF", 240000, 7)))
    assert (error.chain_name, error.required, error.available) \
        == ("pF", 240000, 7)
    assert str(error) == \
        "pipeline chain 'pF' needs 240000 bytes but only 7 are available"


@pytest.mark.parametrize("argv, message", [
    (["--inter-arrival", "inf"], "inter_arrival must be finite"),
    (["--inter-arrival", "nan"], "inter_arrival must be finite"),
    (["--waits-us", "nan"], "w must be finite"),
    (["--waits-us", "inf"], "w must be finite"),
    (["--queries", "0"], "need >= 1 query"),
], ids=["inter-arrival-inf", "inter-arrival-nan", "waits-nan", "waits-inf",
        "no-queries"])
def test_cmd_multiquery_rejects_bad_numbers_in_one_line(argv, message,
                                                        capsys):
    assert message in usage_error(
        capsys, ["multiquery", "--scale", "0.02", "--queries", "2",
                 "--waits-us", "20"] + argv)


# --------------------------------------------------------------------------
# Offline telemetry loading (--from) and repro top
# --------------------------------------------------------------------------

def test_cmd_metrics_from_missing_file_exits_2(capsys, tmp_path):
    assert main(["metrics", "--from", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cmd_metrics_from_truncated_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"metrics": {')
    assert main(["metrics", "--from", str(bad)]) == 2
    assert "unreadable" in capsys.readouterr().err


def test_cmd_metrics_from_roundtrips_a_previous_export(capsys, tmp_path):
    exported = tmp_path / "metrics.json"
    assert main(["metrics", "--scale", "0.02", "--strategy", "DSE",
                 "--json", str(exported)]) == 0
    capsys.readouterr()

    prom = tmp_path / "reexport.prom"
    assert main(["metrics", "--from", str(exported),
                 "--prom", str(prom)]) == 0
    out = capsys.readouterr().out
    assert "DSE:" in out and "metrics" in out
    assert prom.read_text().startswith("# HELP repro_response_time_seconds")


@pytest.mark.parametrize("interval, sampled", [("0", False), ("0.05", True)])
def test_cmd_metrics_sample_interval_sets_the_sampler(interval, sampled,
                                                      capsys, tmp_path):
    import json

    exported = tmp_path / "metrics.json"
    assert main(["metrics", "--scale", "0.02", "--sample-interval", interval,
                 "--json", str(exported)]) == 0
    assert bool(json.loads(exported.read_text())["samples"]) is sampled


def test_cmd_trace_from_missing_file_exits_2(capsys, tmp_path):
    assert main(["trace", "--from", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cmd_trace_from_summarizes_a_chrome_trace(capsys, tmp_path):
    target = tmp_path / "trace.json"
    assert main(["trace", "--scale", "0.02", "--out", str(target)]) == 0
    capsys.readouterr()
    assert main(["trace", "--from", str(target)]) == 0
    assert "chrome trace:" in capsys.readouterr().out


def _write_flight_dump(tmp_path, with_snapshot=True):
    from repro.observability import ENTRY_BATCH, ENTRY_STALL, FlightRecorder

    recorder = FlightRecorder(capacity=16)
    recorder.record(ENTRY_BATCH, 0.1, fragment="pA", tuples=128)
    recorder.record(ENTRY_STALL, 0.4, cause="source-wait:A", duration=0.2)
    if with_snapshot:
        recorder.latest_snapshot = {
            "strategy": "DSE", "now": 0.4, "result_tuples": 128,
            "batches": 1, "decisions": 0, "stall_time": 0.2,
            "stalls": {"source-wait:A": 0.2},
            "memory": {"used": 0, "total": 8e6, "peak": 0},
            "fragments": [], "queues": {}}
    return recorder.dump(tmp_path / "flight.json", reason="stall")


def test_cmd_trace_from_summarizes_a_flight_dump(capsys, tmp_path):
    dump = _write_flight_dump(tmp_path)
    assert main(["trace", "--from", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "flight-recorder dump: reason=stall" in out
    assert "batch" in out and "stall" in out


def test_cmd_top_replay_renders_the_dump_snapshot(capsys, tmp_path):
    dump = _write_flight_dump(tmp_path)
    assert main(["top", "--replay", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "repro top — DSE" in out
    assert "source-wait:A" in out


def test_cmd_top_replay_without_snapshot_exits_2(capsys, tmp_path):
    dump = _write_flight_dump(tmp_path, with_snapshot=False)
    assert main(["top", "--replay", str(dump)]) == 2
    assert "no live snapshot" in capsys.readouterr().err


def test_cmd_top_replay_missing_dump_exits_2(capsys, tmp_path):
    assert main(["top", "--replay", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cmd_top_once_with_nothing_listening_exits_2(capsys):
    assert main(["top", "--connect", "127.0.0.1:1", "--once"]) == 2
    assert "cannot stream" in capsys.readouterr().err


# --------------------------------------------------------------------------
# repro explain: the critical-path analyzer
# --------------------------------------------------------------------------

def test_cmd_explain_prints_an_exact_critical_path(capsys):
    assert main(["explain", "--scale", "0.02", "--slow", "C:6",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "critical path:" in out and "(DSE)" in out
    assert "(exact)" in out and "residual" not in out
    assert "longest critical-path segments:" in out


def test_cmd_explain_vs_prints_both_paths_and_the_diff(capsys):
    assert main(["explain", "--scale", "0.02", "--slow", "C:6",
                 "--seed", "5", "--vs", "SEQ"]) == 0
    out = capsys.readouterr().out
    assert "(DSE)" in out and "(SEQ)" in out
    assert "span diff:" in out
    assert "largest contributor to the delta:" in out


def test_cmd_explain_spans_out_export_feeds_explain_from(capsys, tmp_path):
    target = tmp_path / "spans.json"
    assert main(["explain", "--scale", "0.02", "--seed", "5",
                 "--spans-out", str(target)]) == 0
    live_out = capsys.readouterr().out
    assert target.exists()
    assert target.with_suffix(".trace.json").exists()

    assert main(["explain", "--from", str(target)]) == 0
    replay_out = capsys.readouterr().out
    assert "(exact)" in replay_out
    # The export carries the full tree, so the offline attribution
    # reproduces the live category table line for line (the headers
    # differ only in the strategy tag, which the export doesn't carry).
    def table(text):
        return [line for line in text.splitlines()
                if "%" in line or "= response time" in line]

    assert table(replay_out) == table(live_out)
    assert table(replay_out), "no category table rendered"


def test_cmd_explain_segments_bounds_the_listed_segments(capsys):
    header = "longest critical-path segments:\n"

    def listed(*flags):
        assert main(["explain", "--scale", "0.02", "--slow", "C:6",
                     "--seed", "5", *flags]) == 0
        out = capsys.readouterr().out
        return out.split(header, 1)[1].splitlines() if header in out else []

    longest = listed()
    assert len(longest) == 8  # the default
    assert listed("--segments", "3") == longest[:3]
    assert listed("--segments", "0") == []


def test_cmd_explain_from_missing_file_exits_2(capsys, tmp_path):
    assert main(["explain", "--from", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cmd_explain_unknown_slow_relation_fails_fast(capsys):
    assert "unknown relation(s) in --slow: ['ZZ']" in usage_error(
        capsys, ["explain", "--scale", "0.02", "--slow", "ZZ:4"])


def test_cmd_run_spans_out_writes_a_loadable_export(capsys, tmp_path):
    from repro.observability import explain_spans, load_spans

    target = tmp_path / "run-spans.json"
    assert main(["run", "--scale", "0.02", "--strategy", "DSE",
                 "--seed", "5", "--spans-out", str(target)]) == 0
    assert "spans:" in capsys.readouterr().out
    spans = load_spans(target)
    explanation = explain_spans(spans)
    assert explanation.accounted == explanation.response_time


def test_cmd_run_spans_out_rejects_dphj(capsys):
    assert "DQP engine" in usage_error(
        capsys, ["run", "--scale", "0.02", "--strategy", "DPHJ",
                 "--spans-out", "nope.json"])


@pytest.mark.parametrize("flags", [
    ["--chrome-trace", "nope.json"], ["--timeline"], ["--trace"],
    ["--error", "J1:3"], ["--reopt"]],
    ids=lambda flags: flags[0])
def test_cmd_run_rejects_dqp_output_flags_for_dphj(flags, capsys, tmp_path,
                                                    monkeypatch):
    """DPHJ has no estimates to skew, re-optimizer, fragments, decisions
    or spans: a flag that needs them is refused, not silently ignored."""
    monkeypatch.chdir(tmp_path)
    assert usage_error(capsys, ["run", "--scale", "0.02", "--strategy",
                                "DPHJ", *flags]).startswith(
        f"error: {flags[0]} needs the DQP engine")
    assert not list(tmp_path.iterdir())


# --------------------------------------------------------------------------
# repro history (offline archive queries)
# --------------------------------------------------------------------------

def _write_history_archive(directory, times, tenants=None):
    from repro.observability.archive import SegmentedLog

    log = SegmentedLog(directory)
    for t, tenant in zip(times, tenants or ["gold"] * len(times)):
        log.write({"kind": "outcome", "t": t, "tenant": tenant,
                   "latency_s": 0.01, "wait_s": 0.0, "ok": True})
    log.close()


def test_cmd_history_missing_archive_exits_2(capsys, tmp_path):
    assert main(["history", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cmd_history_slo_report_needs_an_objective(capsys, tmp_path):
    _write_history_archive(tmp_path / "arch", [1.0])
    assert main(["history", str(tmp_path / "arch"), "--slo-report"]) == 2
    assert "--slo" in capsys.readouterr().err


def test_cmd_history_renders_summary_slo_and_alerts(capsys, tmp_path):
    _write_history_archive(tmp_path / "arch", [float(i) for i in range(5)])
    assert main(["history", str(tmp_path / "arch"), "--slo-report",
                 "--slo", "gold:p99<=1s@99%", "--alerts"]) == 0
    out = capsys.readouterr().out
    assert "5 outcomes (5 ok, 0 failed)" in out
    assert "tenant gold" in out
    assert "slo gold:p99<=1s@99%" in out and "MET" in out


@pytest.mark.parametrize("window,tenants", [
    ([], ["bronze", "gold"]),
    (["--since", "3"], ["bronze"]),
    (["--until", "3"], ["gold"]),
    (["--since", "2", "--until", "4"], []),
], ids=["unbounded", "since", "until", "both"])
def test_cmd_history_since_and_until_bound_the_records(window, tenants,
                                                       capsys, tmp_path):
    """``--since`` drops the records before it, ``--until`` those after."""
    _write_history_archive(tmp_path / "arch", [1.0, 5.0], ["gold", "bronze"])
    assert main(["history", str(tmp_path / "arch"), "--json", *window]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["outcomes"] == len(tenants)
    assert sorted(summary["tenants"]) == tenants


def test_cmd_history_diff_windows(capsys, tmp_path):
    _write_history_archive(tmp_path / "arch",
                           [1.0, 2.0, 11.0, 12.0])
    assert main(["history", str(tmp_path / "arch"),
                 "--diff", "0.5..9", "10..13"]) == 0
    out = capsys.readouterr().out
    assert "window_a" in out and "window_b" in out
    assert "p99_s" in out and "throughput_qps" in out


def test_cmd_history_diff_runs_its_help_example(capsys, tmp_path):
    """Relative windows start with "-" and are still ``--diff``'s values:
    the example its help prints runs as printed."""
    example = "--diff -7200..-3600 -3600..0"
    with pytest.raises(SystemExit):
        main(["history", "--help"])
    assert example in " ".join(capsys.readouterr().out.split())
    now = time.time()
    _write_history_archive(tmp_path / "arch", [now - 5000.0, now - 60.0])
    assert main(["history", str(tmp_path / "arch"), *example.split(),
                 "--json"]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["window_a"]["summary"]["outcomes"] == 1
    assert diff["window_b"]["summary"]["outcomes"] == 1
