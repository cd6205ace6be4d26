#!/usr/bin/env python
"""Census of what a finished query leaves for CPython's cyclic collector.

Runs the three front-ends at quick sizes (one-shot ``RunSpec.execute``,
the multi-query launcher with spans + dynamic budgets in a tight pool,
an in-process ``QueryService`` closed loop) with the collector off and
``gc.DEBUG_SAVEALL`` on, then collects once: everything the collector
finds was kept alive by a reference cycle.  Prints unreachable objects
per query and the cycles themselves, grouped by the *shape* of each
strongly connected component (the type names of its members).

Exit status 1 when some shape occurs at least once per query — the
engine's ownership rule (``docs/architecture.md`` §1) is that nothing a
query builds needs the collector.

Then a retention census: a closed loop of clients on one in-process
service, with ``tracemalloc`` on, reports the bytes still allocated per
completion between two points after a warm-up, and the kernel heap's
length against its live entries at the end.  Exit status 1 as well when
more than ``MAX_RETAINED_BYTES`` a completion stay behind — nothing a
finished submission made may stay reachable from the machine.

    PYTHONPATH=src python scripts/gc_census.py
"""

from __future__ import annotations

import asyncio
import gc
import sys
import tracemalloc
from collections import Counter
from typing import Any, Callable

#: bytes a completion may leave allocated on a long-lived service once
#: its rings are full (a cancelled guard timeout left in the kernel heap
#: was ≈ 1.35 KB, 2.5 a completion; a temp relation's ledger entry
#: ≈ 120 B, three per MA submission).
MAX_RETAINED_BYTES = 64
#: completions before retention is measured: past the service's
#: 4,096-entry latency window and 4,096-decision audit ring.
RETENTION_WARMUP = 5_000


def cycle_shapes(objects: list[Any]) -> Counter:
    """Strongly connected components of ``objects`` (edges:
    ``gc.get_referents``) that hold a cycle, counted by shape."""
    index_of = {id(obj): i for i, obj in enumerate(objects)}
    edges = [[index_of[id(ref)] for ref in gc.get_referents(obj)
              if id(ref) in index_of] for obj in objects]
    # Tarjan, iteratively: a submission's garbage is one long chain.
    order = [-1] * len(objects)
    low = [0] * len(objects)
    on_stack = [False] * len(objects)
    stack: list[int] = []
    shapes: Counter = Counter()
    counter = 0
    for root in range(len(objects)):
        if order[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, edge = work.pop()
            if edge == 0:
                order[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            for position in range(edge, len(edges[node])):
                child = edges[node][position]
                if order[child] == -1:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    break
                if on_stack[child]:
                    low[node] = min(low[node], order[child])
            else:
                if low[node] == order[node]:
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        members.append(member)
                        if member == node:
                            break
                    if len(members) > 1 or node in edges[node]:
                        names = Counter(type(objects[m]).__name__
                                        for m in members)
                        shapes[" + ".join(
                            name if count == 1 else f"{name}\u00d7{count}"
                            for name, count in sorted(names.items()))] += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return shapes


def census(run: Callable[[], int]) -> tuple[int, int, Counter]:
    """``run()`` with the collector off; returns (queries it answered,
    unreachable objects it left, their cycles by shape)."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        queries = run()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return queries, len(garbage), cycle_shapes(garbage)


def one_shot() -> int:
    from repro.config import SimulationParameters
    from repro.parallel.spec import RunSpec, uniform_delay_specs

    params = SimulationParameters()
    waits = {name: 4 * params.w_min for name in "ABCDEF"}
    for strategy in ("SEQ", "MA", "DSE"):
        RunSpec(strategy, 1, 0.02, uniform_delay_specs(waits),
                params).execute()
    return 3


def multiquery() -> int:
    from repro.config import SimulationParameters
    from repro.parallel.spec import MultiQuerySpec

    mb = 1024 * 1024
    shrink = 0.04
    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_spans=True,
                                  dynamic_budget_replanning=True)
    for strategy in ("DSE", "MA"):
        MultiQuerySpec(strategy, 4 * params.w_min, 8, 3, 0.5 * shrink,
                       inter_arrival=0.05, params=params,
                       memory_bytes=int(4.0 * mb * shrink),
                       min_memory_bytes=int(3.7 * mb * shrink),
                       max_memory_bytes=int(8 * mb * shrink),
                       global_memory_bytes=int(10 * mb * shrink),
                       admission="priority").execute()
    return 16


#: bench/service_workloads.py's fast machine: the host, not a modelled
#: delay, is what a service loop waits for.
FAST_MACHINE = dict(
    cpu_mips=10_000.0, disk_latency=17e-5, disk_seek_time=5e-5,
    disk_transfer_rate=600_000_000.0, telemetry_enabled=True)
STRATEGIES = ("DSE", "DSE", "MA", "SEQ")


def new_service() -> Any:
    from repro.config import SimulationParameters
    from repro.service import QueryService

    params = SimulationParameters(**FAST_MACHINE)
    return QueryService(
        params=params, seed=1,
        global_memory_bytes=4 * params.query_memory_bytes,
        admission="priority", history=16)


def request(index: int) -> Any:
    from repro.service import SubmissionRequest

    return SubmissionRequest(
        strategy=STRATEGIES[index % len(STRATEGIES)], scale=0.0005,
        seed=index, wait_us=0.0, jitter=1.0)


def service(submissions: int = 120) -> int:
    async def drive() -> None:
        service = new_service()
        await service.start()
        records = [service.submit(request(index))
                   for index in range(submissions)]
        for record in records:
            await record.done.wait()
            assert record.state == "done", record.error
        del records, record
        await service.stop()

    asyncio.run(drive())
    return submissions


def retention(warmup: int = RETENTION_WARMUP, completions: int = 2_000,
              clients: int = 8) -> tuple[float, int, int]:
    """Bytes still allocated per completion between completion ``warmup``
    and ``warmup + completions`` of a closed loop of ``clients`` (work in
    flight is alike at both points), and the kernel heap's length and
    live entries at the second."""
    marks: list[int] = []
    heap: list[int] = []

    async def drive() -> None:
        service = new_service()
        await service.start()
        done = 0

        async def client(index: int) -> None:
            nonlocal done
            while done < warmup + completions:
                record = service.submit(request(index))
                index += clients
                await record.done.wait()
                assert record.state == "done", record.error
                done += 1
                if done in (warmup, warmup + completions):
                    gc.collect()
                    marks.append(tracemalloc.get_traced_memory()[0])
                    entries = service.kernel._heap
                    heap[:] = [len(entries), sum(
                        not entry[3].cancelled for entry in entries)]

        await asyncio.gather(*(client(index) for index in range(clients)))
        await service.stop()

    tracemalloc.start()
    try:
        asyncio.run(drive())
    finally:
        tracemalloc.stop()
    return (marks[1] - marks[0]) / completions, heap[0], heap[1]


def main() -> int:
    per_query = False
    for name, run in (("one-shot", one_shot), ("multiquery", multiquery),
                      ("service", service)):
        run()  # imports and lazily built classes are not a query's garbage
        queries, objects, shapes = census(run)
        print(f"{name}: {queries} queries, {objects} unreachable objects "
              f"({objects / queries:.1f} per query), "
              f"{sum(shapes.values())} cycles")
        for shape, count in shapes.most_common():
            print(f"  x{count:<6} {shape}")
            per_query = per_query or count >= queries
    if per_query:
        print("FAIL: a reference cycle is built per query", file=sys.stderr)
    retained, entries, live = retention()
    print(f"retention: {retained:.1f} bytes per completion after warm-up "
          f"(limit {MAX_RETAINED_BYTES}); kernel heap {entries} entries, "
          f"{live} live")
    if retained > MAX_RETAINED_BYTES:
        print("FAIL: a finished submission stays reachable", file=sys.stderr)
    return 1 if per_query or retained > MAX_RETAINED_BYTES else 0


if __name__ == "__main__":
    sys.exit(main())
