"""Dependency analysis over pipeline chains.

Blocking edges induce the *blocks* relation of Section 4.1: chain ``b``
blocks chain ``p`` when ``b``'s terminal mat fills the build side of a
join that ``p`` probes.  ``ancestors(p)`` is the set of chains blocking
``p``; ``ancestors*`` its transitive closure.  A chain is C-schedulable
once every chain in ``ancestors*(p)`` has terminated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover - the plan imports this module
    from repro.plan.qep import QEP


def direct_ancestors(qep: QEP) -> dict[str, set[str]]:
    """Map each chain name to the names of chains that directly block it."""
    feeders = {chain.feeds.name: chain.name
               for chain in qep.chains if chain.feeds is not None}
    ancestors: dict[str, set[str]] = {chain.name: set() for chain in qep.chains}
    for chain in qep.chains:
        for join in chain.probe_joins():
            try:
                ancestors[chain.name].add(feeders[join.name])
            except KeyError:
                raise PlanError(
                    f"chain {chain.name!r} probes join {join.name!r} "
                    "but no chain feeds it") from None
    return ancestors


def ancestor_closure(qep: QEP) -> dict[str, set[str]]:
    """Transitive closure of :func:`direct_ancestors` (``ancestors*``)."""
    direct = direct_ancestors(qep)
    closure: dict[str, set[str]] = {}
    for chain in qep.chains:
        _resolve(chain.name, (), direct, closure)
    return closure


def _resolve(name: str, trail: tuple[str, ...], direct: dict[str, set[str]],
             closure: dict[str, set[str]]) -> set[str]:
    # Module level, not nested in its caller: a closure that calls itself
    # is a reference cycle minted once per call (once per query).
    if name in closure:
        return closure[name]
    if name in trail:
        cycle = " -> ".join(trail + (name,))
        raise PlanError(f"cyclic blocking dependency: {cycle}")
    result = set(direct[name])
    for parent in direct[name]:
        result |= _resolve(parent, trail + (name,), direct, closure)
    closure[name] = result
    return result


def iterator_order(qep: QEP) -> list[str]:
    """The sequential (iterator-model) execution order of the chains.

    This is simply the QEP's stored chain order, after checking that it is
    a valid topological order of the blocking dependencies — every chain's
    ancestors appear before it.
    """
    closure = ancestor_closure(qep)
    seen: set[str] = set()
    for chain in qep.chains:
        missing = closure[chain.name] - seen
        if missing:
            raise PlanError(
                f"chain {chain.name!r} appears before its ancestor(s) "
                f"{sorted(missing)} in the QEP order")
        seen.add(chain.name)
    return [chain.name for chain in qep.chains]
