"""Shared configuration and helpers for the experiment drivers.

Scaling policy
--------------
The paper's effectiveness experiments run on 10-minute Twitter windows at
136-1180 matching posts per minute with lambdas of 5-30 *seconds*, and its
efficiency experiments on a full day of tweets.  A pure-Python exact solver
cannot provide optima at those raw rates, so the drivers default to a
*shape-preserving* rescaling: the arrival rate is reduced while lambda (and
tau) grow by the inverse factor, keeping the statistic the algorithms
actually respond to — expected same-label posts per lambda window — in the
paper's regime.  The default effectiveness regime is 12 matching posts per
minute over a 10-minute window with lambdas of tens of seconds
(a 5-second paper lambda maps to 30 s here, both ~1 post per label-window).
Every driver accepts the raw knobs, so ``--full`` runs can push toward
paper scale when the caller has the patience.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, Sequence

from ..core.brute_force import exact_via_setcover
from ..core.greedy_sc import greedy_sc
from ..core.instance import Instance
from ..core.scan import scan, scan_plus
from ..core.solution import Solution
from ..core.streaming import stream_solve
from ..datagen.workload import day_workload, instance_with_overlap
from ..stream.runner import StreamResult

__all__ = [
    "EFFECTIVENESS_RATE_PER_MIN",
    "EFFECTIVENESS_DURATION",
    "BATCH_ALGORITHMS",
    "STREAM_ALGORITHMS",
    "make_effectiveness_instance",
    "make_day_instance",
    "optimum_size",
    "batch_sizes",
    "stream_sizes",
]

#: Matching posts per minute in the scaled effectiveness regime.
EFFECTIVENESS_RATE_PER_MIN = 12.0
#: The paper's 10-minute evaluation window, in seconds.
EFFECTIVENESS_DURATION = 600.0

#: The approximation algorithms compared in the batch experiments.
#: GreedySC runs the paper's linear-rescan greedy stage (Section 7.3), not
#: the served lazy heap: the picks are the same, but Figure 13's timings
#: are of the authors' implementation.
BATCH_ALGORITHMS: Dict[str, Callable[[Instance], Solution]] = {
    "scan": scan,
    "scan+": scan_plus,
    "greedy_sc": functools.partial(greedy_sc, strategy="rescan"),
}

#: The streaming algorithms compared in the StreamMQDP experiments.
STREAM_ALGORITHMS: Sequence[str] = (
    "stream_scan",
    "stream_scan+",
    "stream_greedy_sc",
    "stream_greedy_sc+",
)


def make_effectiveness_instance(
    seed: int,
    num_labels: int,
    lam: float,
    overlap: float = 1.3,
    duration: float = EFFECTIVENESS_DURATION,
    rate_per_min: float = EFFECTIVENESS_RATE_PER_MIN,
) -> Instance:
    """A 10-minute-window instance in the scaled effectiveness regime."""
    rng = random.Random(seed)
    return instance_with_overlap(
        rng,
        num_labels=num_labels,
        duration=duration,
        lam=lam,
        overlap=overlap,
        rate_per_min=rate_per_min,
    )


def make_day_instance(
    seed: int,
    num_labels: int,
    lam: float,
    scale: float = 0.02,
    overlap: float = 1.3,
    duration: float = 86_400.0,
) -> Instance:
    """A (scaled) day-long bursty instance for the efficiency studies."""
    rng = random.Random(seed)
    return day_workload(
        rng,
        num_labels=num_labels,
        lam=lam,
        scale=scale,
        overlap=overlap,
        duration=duration,
    )


def optimum_size(instance: Instance,
                 node_budget: int = 4_000_000) -> int:
    """The exact optimum used as the error reference.

    The paper uses its DP (OPT); we use the branch-and-bound exact set
    cover, which handles the scaled windows comfortably and agrees with
    the DP on every instance both can solve (cross-checked in the tests).
    """
    return exact_via_setcover(instance, node_budget=node_budget).size


def batch_sizes(instance: Instance) -> Dict[str, Solution]:
    """Run every batch approximation algorithm; name -> solution."""
    return {
        name: solver(instance)
        for name, solver in BATCH_ALGORITHMS.items()
    }


def stream_sizes(
    instance: Instance, tau: float,
    algorithms: Sequence[str] = STREAM_ALGORITHMS,
) -> Dict[str, StreamResult]:
    """Run the named streaming algorithms; name -> stream result."""
    return {
        name: stream_solve(name, instance, tau=tau) for name in algorithms
    }
