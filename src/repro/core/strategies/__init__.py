"""Execution strategies (Section 5.1.2).

All strategies share the same lower-level machinery — fragments, DQP,
memory admission — and differ only in their *planning policy*:

* :class:`SequentialPolicy` (**SEQ**) — the classical iterator model: one
  pipeline chain at a time, in left-to-right recursion order;
* :class:`MaterializeAllPolicy` (**MA**) — the strategy of Urhan et
  al. [1]: first materialize every remote relation on the local disk
  (overlapping all delivery delays), then execute sequentially from disk;
* :class:`DsePolicy` (**DSE**) — the paper's contribution: dynamic
  scheduling with critical-degree priorities and bmi-gated PC degradation;
* :func:`lower_bound` (**LWB**) — the analytic response-time lower bound
  no strategy can beat.
"""

from repro.common.errors import ConfigurationError
from repro.core.dqs import PlanningPolicy
from repro.core.strategies.seq import SequentialPolicy
from repro.core.strategies.ma import MaterializeAllPolicy
from repro.core.strategies.dse import DsePolicy
from repro.core.strategies.concurrent import ConcurrentOnlyPolicy
from repro.core.strategies.lwb import lower_bound

__all__ = [
    "ConcurrentOnlyPolicy",
    "DsePolicy",
    "MaterializeAllPolicy",
    "PlanningPolicy",
    "SequentialPolicy",
    "lower_bound",
    "make_policy",
]


def make_policy(name: str) -> PlanningPolicy:
    """Instantiate a policy by its short name.

    ``"SEQ"``, ``"MA"``, ``"DSE"`` are the paper's strategies;
    ``"DSE-ND"`` is the no-degradation ablation.
    """
    policies = {
        "SEQ": SequentialPolicy,
        "MA": MaterializeAllPolicy,
        "DSE": DsePolicy,
        "DSE-ND": ConcurrentOnlyPolicy,
    }
    try:
        return policies[name.upper()]()
    except KeyError:
        raise ConfigurationError(f"unknown strategy {name!r}; "
                                 f"choose from {sorted(policies)}") from None
