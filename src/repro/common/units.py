"""Unit conventions and small conversion helpers.

Conventions used throughout the library:

* **time** — seconds of *virtual* (simulated) time, as ``float``;
* **sizes** — bytes, as ``int``;
* **work** — CPU instructions, as ``float`` (fractional instructions are
  fine: they only ever become time by division with an instruction rate);
* **rates** — per-second quantities.

Type aliases :data:`Seconds` and :data:`Instructions` document intent in
signatures without introducing a runtime cost.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ConfigurationError

Seconds = float
Instructions = float

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000

MILLI = 1e-3
MICRO = 1e-6


def bytes_to_pages(num_bytes: int, page_size: int) -> int:
    """Number of pages needed to hold ``num_bytes`` (ceiling division)."""
    if page_size <= 0:
        raise ValueError(f"page_size must be positive, got {page_size}")
    if num_bytes < 0:
        raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
    return -(-num_bytes // page_size)


def format_bytes(num_bytes: int) -> str:
    """Human-readable byte count (``12.5 MB`` style, powers of 1000)."""
    value = float(num_bytes)
    for suffix in ("B", "KB", "MB", "GB"):
        if abs(value) < 1000.0 or suffix == "GB":
            if suffix == "B":
                return f"{int(value)} {suffix}"
            return f"{value:.1f} {suffix}"
        value /= 1000.0
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Human-readable duration, picking µs/ms/s automatically."""
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds < MILLI:
        return f"{seconds / MICRO:.1f} µs"
    if seconds < 1.0:
        return f"{seconds / MILLI:.1f} ms"
    return f"{seconds:.3f} s"


def parse_size(text: str, flag: str) -> Optional[int]:
    """Parse a memory size like ``512``, ``128K``, ``2M``, ``1G``.

    ``inf``/``none`` mean "no pool" (ungoverned) and return ``None``;
    ``flag`` names the value in the error a bad size raises.
    """
    lowered = text.strip().lower()
    if lowered in ("inf", "none", "unbounded"):
        return None
    multiplier = 1
    for suffix, factor in (("k", 1024), ("m", 1024 ** 2), ("g", 1024 ** 3)):
        if lowered.endswith(suffix):
            lowered, multiplier = lowered[:-1], factor
            break
    try:
        value = int(float(lowered) * multiplier)
    except ValueError:
        raise ConfigurationError(
            f"bad {flag} size {text!r}; expected bytes with an optional "
            f"K/M/G suffix, or 'inf'") from None
    if value <= 0:
        raise ConfigurationError(f"{flag} must be positive, got {text!r}")
    return value
