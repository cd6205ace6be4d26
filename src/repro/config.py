"""Simulation and engine configuration.

:class:`SimulationParameters` carries Table 1 of the paper verbatim plus
the engine knobs the paper describes in prose (queue sizes, batch size,
benefit materialization threshold, timeout, ...).  A single instance is
shared by every runtime component of one simulated execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.common.errors import ConfigurationError

#: Average per-tuple waiting time of a wrapper that has no particular
#: problem (Section 5.1.3): sequential read at the source plus a 100 Mb/s
#: network comes to 20 µs per 40-byte tuple.
W_MIN_DEFAULT = 20e-6


@dataclass
class SimulationParameters:
    """All knobs of one simulated execution.

    The first block is Table 1 of the paper; the second block is engine
    configuration from the text; the third block is methodology knobs.
    """

    # --- Table 1: simulation parameters -------------------------------
    cpu_mips: float = 100.0                  #: CPU speed (MIPS)
    disk_latency: float = 17e-3              #: rotational latency (s)
    disk_seek_time: float = 5e-3             #: seek time (s)
    disk_transfer_rate: float = 6_000_000.0  #: bytes/s
    io_cache_pages: int = 8                  #: I/O cache size (pages)
    io_cpu_instructions: float = 3000.0      #: CPU cost to perform an I/O
    num_local_disks: int = 1                 #: mediator disks
    tuple_size: int = 40                     #: bytes
    page_size: int = 8192                    #: bytes
    move_tuple_instructions: float = 100.0   #: move a tuple
    hash_search_instructions: float = 100.0  #: search for match in hash table
    produce_tuple_instructions: float = 50.0  #: produce a result tuple
    network_bandwidth_bits: float = 100e6    #: bits/s
    message_instructions: float = 200_000.0  #: send/receive a message

    # --- engine configuration (from the text) --------------------------
    #: tuples per network message; wrappers ship whole pages.  One page
    #: per message makes the per-tuple receive cost ≈ 10 µs, which (with
    #: the ~3 µs of operator work) keeps every remote PC critical at
    #: w_min = 20 µs — exactly the regime Section 4.3 describes.
    message_pages: int = 1
    #: communication-queue capacity per wrapper, in messages ("a queue of
    #: a given size"); a full queue suspends the wrapper (window protocol).
    queue_capacity_messages: int = 4
    #: tuples the DQP processes per scheduling quantum (Section 3.2);
    #: 0 means "one message".
    batch_tuples: int = 0
    #: "Notice that batch size can vary dynamically" (footnote 1 of the
    #: paper): when enabled, the DQP sizes each batch to half the
    #: fragment's current backlog, between one message and
    #: ``adaptive_batch_max_messages`` messages — big batches when data
    #: piled up (fewer switches), small ones when it trickles
    #: (responsiveness).
    adaptive_batching: bool = False
    adaptive_batch_max_messages: int = 8
    #: CPU overhead charged when the DQP switches between query fragments.
    context_switch_instructions: float = 500.0
    #: DQP service discipline: "priority" is the paper's rule (always
    #: return to the highest-priority fragment with data, Section 3.2);
    #: "round-robin" ignores priorities among data-ready fragments — the
    #: ablation showing what the SP's total order contributes.
    dqp_discipline: str = "priority"
    #: CPU cost of one planning phase (computing a scheduling plan must be
    #: cheap "compared to the average processing time of one execution
    #: phase", Section 3.3).
    planning_instructions: float = 20_000.0
    #: benefit materialization threshold (Section 4.4); experiments use 1.
    bmt: float = 1.0
    #: a fragment is "sparse" when its per-tuple CPU demand is at most
    #: this fraction of its per-tuple arrival interval (c_p/w_p).  Sparse
    #: fragments are served at top priority: their rare batches barely
    #: disturb anyone, and serving them immediately keeps their (slow)
    #: wrapper from blocking on the window protocol.  Dense fragments
    #: would hog a strict-priority processor, so pipeline chains outrank
    #: them (see DsePolicy).
    sparse_demand_threshold: float = 0.5
    #: relative delivery-rate change that triggers a RateChange event.
    rate_change_threshold: float = 0.5
    #: relative cardinality error (observed vs estimated at a blocking
    #: edge) above which the DQO flags a re-optimization opportunity
    #: (Section 3.1 / [9]).
    reoptimization_threshold: float = 0.5
    #: let the DQO *act* on misestimates by swapping the build/probe
    #: sides of still-pending joins (QEP-level adaptation); off by
    #: default so the baseline strategies match the paper exactly.
    enable_reoptimization: bool = False
    #: corrected build estimate must exceed the corrected probe estimate
    #: by this factor before a swap is worth the plan churn.
    reopt_swap_margin: float = 1.2
    #: stall duration after which the DQP raises TimeOut (Section 3.2).
    timeout: float = 60.0
    #: abort the query after this many *consecutive* TimeOut events
    #: (0 = keep waiting forever).  A full system would escalate to
    #: phase-2 query scrambling instead of aborting.
    max_consecutive_timeouts: int = 0
    #: total memory available to the query (bytes); the experiments assume
    #: enough memory for a classical execution (Section 5), and 256 MB
    #: comfortably holds every hash table of the Figure 5 workload.
    query_memory_bytes: int = 256 * 1024 * 1024
    #: react to broker grow offers: when the query's memory lease grows
    #: mid-flight (another query released its lease), the DQS re-runs
    #: the planning phase against the larger budget and stops the MFs of
    #: chains that were degraded for memory but now fit.  Off by default
    #: — the paper's model is a static budget.
    dynamic_budget_replanning: bool = False
    #: pages written/read per temp-relation I/O (write-behind / prefetch
    #: granularity).  Large sequential chunks amortize the 22 ms of
    #: positioning so that spilling a tuple costs ~8 µs of disk time —
    #: below w_min, matching Section 5.2's "w_min is higher than the time
    #: to write a tuple on the local disk".  (The 8-page I/O *cache* of
    #: Table 1 is a separate knob: ``io_cache_pages``.)
    io_chunk_pages: int = 64
    #: let PC degradation materialize into *query memory* when the
    #: estimate fits ("materialization can occur in memory or on disk
    #: depending on the available resources", Section 2.2); off by
    #: default to match the paper's disk-based accounting.
    allow_memory_temps: bool = False
    #: model contention on the mediator's inbound network link explicitly
    #: (off by default: per-tuple waiting times already include network
    #: time, as in Section 5.1.3).
    model_link_contention: bool = False
    #: register named metrics (counters/gauges/histograms) during the
    #: run; off by default so benchmarks see a near-no-op null registry.
    #: Drives only the front-ends whose result returns the registry
    #: (one-shot ``ExecutionResult.metrics`` and ``repro live``); the
    #: service, multi-query and DPHJ machines keep none either way.
    #: Stall attribution and the decision audit log are always on.
    telemetry_enabled: bool = False
    #: interval between occupancy samples (memory, queue depths,
    #: delivery rates) of a one-shot or live run; 0 disables the
    #: periodic sampler.  Only effective together with
    #: ``telemetry_enabled``.
    telemetry_sample_interval: float = 0.0
    #: record the causal span tree (query → phases → fragments → batches
    #: and stall intervals) during the run; independent of
    #: ``telemetry_enabled``.  Off by default: a disabled recorder never
    #: contributes hook callables, so the DQP batch loop pays nothing.
    telemetry_spans: bool = False

    # --- methodology -----------------------------------------------------
    #: default average per-tuple waiting time for "no problem" wrappers.
    w_min: float = W_MIN_DEFAULT
    #: number of repetitions averaged per measurement (paper: 3).
    repetitions: int = 3

    def __post_init__(self):
        self.validate()

    # -- derived values ----------------------------------------------------
    @property
    def tuples_per_page(self) -> int:
        """Whole tuples fitting in one page."""
        return max(1, self.page_size // self.tuple_size)

    @property
    def tuples_per_message(self) -> int:
        """Whole tuples shipped per network message."""
        return self.tuples_per_page * self.message_pages

    @property
    def network_bandwidth_bytes(self) -> float:
        """Network bandwidth in bytes/s."""
        return self.network_bandwidth_bits / 8.0

    @property
    def effective_batch_tuples(self) -> int:
        """DQP batch size in tuples (defaults to one message)."""
        return self.batch_tuples if self.batch_tuples > 0 else self.tuples_per_message

    def instructions_seconds(self, instructions: float) -> float:
        """Convert an instruction count to seconds on this CPU."""
        return instructions / (self.cpu_mips * 1e6)

    def receive_cpu_seconds_per_tuple(self) -> float:
        """Mediator CPU time per tuple spent receiving messages."""
        per_message = self.instructions_seconds(self.message_instructions)
        return per_message / self.tuples_per_message

    def io_seconds_per_tuple(self) -> float:
        """Rough disk time per tuple of sequential temp I/O.

        Used for the ``IO_p`` term of the benefit materialization
        indicator: transfer time of the tuple's share of a page plus the
        per-chunk positioning cost amortized over a full I/O chunk.
        """
        transfer = self.tuple_size / self.disk_transfer_rate
        chunk_overhead = (self.disk_latency + self.disk_seek_time) / (
            self.io_chunk_pages * self.tuples_per_page)
        return transfer + chunk_overhead

    # -- housekeeping ------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for out-of-range values."""
        positive = {
            "cpu_mips": self.cpu_mips,
            "disk_transfer_rate": self.disk_transfer_rate,
            "tuple_size": self.tuple_size,
            "page_size": self.page_size,
            "network_bandwidth_bits": self.network_bandwidth_bits,
            "message_pages": self.message_pages,
            "queue_capacity_messages": self.queue_capacity_messages,
            "io_chunk_pages": self.io_chunk_pages,
            "io_cache_pages": self.io_cache_pages,
            "adaptive_batch_max_messages": self.adaptive_batch_max_messages,
            "timeout": self.timeout,
            "query_memory_bytes": self.query_memory_bytes,
            "repetitions": self.repetitions,
            "num_local_disks": self.num_local_disks,
        }
        # Negated so that NaN, which compares False to everything, fails.
        for name, value in positive.items():
            if not value > 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        non_negative = {
            "disk_latency": self.disk_latency,
            "disk_seek_time": self.disk_seek_time,
            "io_cpu_instructions": self.io_cpu_instructions,
            "move_tuple_instructions": self.move_tuple_instructions,
            "hash_search_instructions": self.hash_search_instructions,
            "produce_tuple_instructions": self.produce_tuple_instructions,
            "message_instructions": self.message_instructions,
            "context_switch_instructions": self.context_switch_instructions,
            "planning_instructions": self.planning_instructions,
            "batch_tuples": self.batch_tuples,
            "max_consecutive_timeouts": self.max_consecutive_timeouts,
            "bmt": self.bmt,
            "rate_change_threshold": self.rate_change_threshold,
            "reoptimization_threshold": self.reoptimization_threshold,
            "reopt_swap_margin": self.reopt_swap_margin,
            "w_min": self.w_min,
            "telemetry_sample_interval": self.telemetry_sample_interval,
        }
        for name, value in non_negative.items():
            if not value >= 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.page_size < self.tuple_size:
            raise ConfigurationError("page_size must be >= tuple_size")
        if self.dqp_discipline not in ("priority", "round-robin"):
            raise ConfigurationError(
                f"dqp_discipline must be 'priority' or 'round-robin', "
                f"got {self.dqp_discipline!r}")

    def with_overrides(self, **overrides: Any) -> "SimulationParameters":
        """A copy with some fields replaced (validates the result)."""
        return replace(self, **overrides)

    def table1_rows(self) -> list[tuple[str, str]]:
        """Rows of the paper's Table 1, formatted for reports."""
        return [
            ("CPU Speed", f"{self.cpu_mips:g} Mips"),
            ("Disk Latency - Seek Time - Transfer Rate",
             f"{self.disk_latency * 1e3:g} ms - {self.disk_seek_time * 1e3:g} ms - "
             f"{self.disk_transfer_rate / 1e6:g} MB/s"),
            ("I/O Cache Size", f"{self.io_cache_pages} pages"),
            ("Perform an I/O", f"{self.io_cpu_instructions:g} Instr."),
            ("Number of Local Disks", f"{self.num_local_disks}"),
            ("Tuple Size - Page Size",
             f"{self.tuple_size} bytes - {self.page_size // 1024} Kb"),
            ("Move a Tuple", f"{self.move_tuple_instructions:g} Inst."),
            ("Search for Match in Hash Table",
             f"{self.hash_search_instructions:g} Inst."),
            ("Produce a Result Tuple", f"{self.produce_tuple_instructions:g} Inst."),
            ("Network Bandwidth", f"{self.network_bandwidth_bits / 1e6:g} Mbs"),
            ("Send/Receive a Message", f"{self.message_instructions:g} Inst."),
        ]
