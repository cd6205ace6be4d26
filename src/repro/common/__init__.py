"""Shared infrastructure: error hierarchy, units, deterministic RNG streams."""

from repro.common.errors import (
    CatalogError,
    ConfigurationError,
    MemoryOverflowError,
    OptimizerError,
    PlanError,
    QueryTimeoutError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from repro.common.rng import RandomStreams, derive_seed
from repro.common.units import (
    GIGA,
    KILO,
    MEGA,
    MICRO,
    MILLI,
    Instructions,
    Seconds,
    bytes_to_pages,
    format_bytes,
    format_seconds,
    parse_size,
)

__all__ = [
    "CatalogError",
    "ConfigurationError",
    "GIGA",
    "Instructions",
    "KILO",
    "MEGA",
    "MICRO",
    "MILLI",
    "MemoryOverflowError",
    "OptimizerError",
    "PlanError",
    "QueryTimeoutError",
    "RandomStreams",
    "ReproError",
    "SchedulingError",
    "Seconds",
    "SimulationError",
    "bytes_to_pages",
    "derive_seed",
    "format_bytes",
    "format_seconds",
    "parse_size",
]
