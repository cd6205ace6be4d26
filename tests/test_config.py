"""Tests for SimulationParameters (Table 1 + engine knobs)."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters, W_MIN_DEFAULT


def test_defaults_match_table1():
    params = SimulationParameters()
    assert params.cpu_mips == 100.0
    assert params.disk_latency == pytest.approx(17e-3)
    assert params.disk_seek_time == pytest.approx(5e-3)
    assert params.disk_transfer_rate == 6_000_000
    assert params.io_cache_pages == 8
    assert params.io_cpu_instructions == 3000
    assert params.num_local_disks == 1
    assert params.tuple_size == 40
    assert params.page_size == 8192
    assert params.move_tuple_instructions == 100
    assert params.hash_search_instructions == 100
    assert params.produce_tuple_instructions == 50
    assert params.network_bandwidth_bits == 100e6
    assert params.message_instructions == 200_000


def test_w_min_default_20us():
    assert W_MIN_DEFAULT == pytest.approx(20e-6)
    assert SimulationParameters().w_min == pytest.approx(20e-6)


def test_derived_tuples_per_page():
    params = SimulationParameters()
    assert params.tuples_per_page == 8192 // 40
    assert params.tuples_per_message == params.tuples_per_page * params.message_pages


def test_effective_batch_defaults_to_message():
    params = SimulationParameters()
    assert params.effective_batch_tuples == params.tuples_per_message
    custom = params.with_overrides(batch_tuples=50)
    assert custom.effective_batch_tuples == 50


def test_instructions_seconds():
    params = SimulationParameters()
    assert params.instructions_seconds(100e6) == pytest.approx(1.0)


def test_receive_cpu_share():
    params = SimulationParameters()
    per_message = 200_000 / 100e6
    assert params.receive_cpu_seconds_per_tuple() == pytest.approx(
        per_message / params.tuples_per_message)


def test_io_seconds_per_tuple_amortizes_positioning():
    params = SimulationParameters()
    transfer_only = params.tuple_size / params.disk_transfer_rate
    full = params.io_seconds_per_tuple()
    assert full > transfer_only
    chunk_tuples = params.io_chunk_pages * params.tuples_per_page
    assert full == pytest.approx(
        transfer_only + (params.disk_latency + params.disk_seek_time) / chunk_tuples)


def test_with_overrides_returns_validated_copy():
    params = SimulationParameters()
    other = params.with_overrides(cpu_mips=200.0)
    assert other.cpu_mips == 200.0
    assert params.cpu_mips == 100.0
    with pytest.raises(ConfigurationError):
        params.with_overrides(cpu_mips=-1)


@pytest.mark.parametrize("field,value", [
    ("cpu_mips", 0), ("page_size", 0), ("tuple_size", -1),
    ("queue_capacity_messages", 0), ("bmt", -1.0), ("timeout", 0),
    ("message_pages", 0), ("w_min", -1e-6), ("repetitions", 0),
])
def test_validation_rejects_bad_values(field, value):
    with pytest.raises(ConfigurationError):
        SimulationParameters(**{field: value})


@pytest.mark.parametrize("field", [
    "cpu_mips", "disk_transfer_rate", "tuple_size", "page_size",
    "network_bandwidth_bits", "message_pages", "queue_capacity_messages",
    "io_chunk_pages", "io_cache_pages", "adaptive_batch_max_messages",
    "timeout", "query_memory_bytes", "repetitions", "num_local_disks",
    "disk_latency", "disk_seek_time", "io_cpu_instructions",
    "move_tuple_instructions", "hash_search_instructions",
    "produce_tuple_instructions", "message_instructions",
    "context_switch_instructions", "planning_instructions", "batch_tuples",
    "max_consecutive_timeouts", "bmt", "rate_change_threshold",
    "reoptimization_threshold", "reopt_swap_margin", "w_min",
    "telemetry_sample_interval",
])
def test_validation_rejects_nan_in_every_range_checked_field(field):
    """NaN compares False to every bound, so it must fail the check
    rather than slip past it; infinity is a value like any other."""
    with pytest.raises(ConfigurationError, match=field):
        SimulationParameters(**{field: math.nan})
    if field != "tuple_size":  # no page holds an infinite tuple
        SimulationParameters(**{field: math.inf})


def test_page_smaller_than_tuple_rejected():
    with pytest.raises(ConfigurationError):
        SimulationParameters(page_size=8, tuple_size=40)


def test_table1_rows_render():
    rows = SimulationParameters().table1_rows()
    labels = [label for label, _ in rows]
    assert "CPU Speed" in labels
    assert "Network Bandwidth" in labels
    assert len(rows) == 11
    values = dict(rows)
    assert values["CPU Speed"] == "100 Mips"
    assert values["Tuple Size - Page Size"] == "40 bytes - 8 Kb"
