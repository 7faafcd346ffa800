"""The ``engine="auto"`` family-builder selector for GreedySC's rescan.

Only ``greedy_sc(..., strategy="rescan")`` builds a set-cover family; the
default lazy heap runs over per-label lambda-windows and never calls
:func:`choose_engine`.  So this selector serves the figure drivers, the
ablations and the oracle tests, not the serve paths.

``BENCH_throughput.json``'s builder ablation shows neither GreedySC
family builder dominates: on the day-long workload the numpy builder
*loses* to pure Python at lambda = 10 min (0.71x) and wins at
lambda = 60 min (4.52x).  The flip is explained by what each engine pays
per unit of work: the Python builder's cost is essentially linear in the
number of within-lambda (coverer, covered) pairs it enumerates
(~2.5 us/pair on the calibration machine), while the numpy builder pays
a large per-call constant (array setup, group splitting, the final
Python-level set merge) and a far smaller per-pair cost.  Equating the
two cost lines on the recorded ablation numbers puts the crossover near
~80k enumerated pairs; :data:`AUTO_PAIR_THRESHOLD` sits just under it.

:func:`estimate_pair_count` estimates that count in ``O(|L|)`` before
building anything, from each posting list's length and value span alone
(about 8 us on five labels).  It builds no columnar snapshot, which a
cold instance headed for the Python builder would never read.  On the
fig13 day slice (1,443 to 13,278 posts, lambda 60 s to 1800 s) it reads
0.78-0.92x the exact count and picks the builder the exact count picks
on every row.

Every decision is recorded through the observability facade
(``engine.auto.python_selected`` / ``engine.auto.numpy_selected``
counters and the ``engine.auto.probe_pairs`` gauge), so a bench
trajectory shows which engine actually ran.
"""

from __future__ import annotations

from ..core.instance import Instance
from ..observability import facade as _obs

__all__ = ["AUTO_PAIR_THRESHOLD", "estimate_pair_count", "choose_engine"]

#: Estimated within-lambda pair count above which the numpy family
#: builder wins.  Calibrated from the BENCH_throughput.json builder
#: ablation (1671 posts, |L|=5): python 146.6 ms at ~59k pairs vs numpy
#: 205.1 ms, python 1000.9 ms at ~293k pairs vs numpy 221.4 ms; the
#: fitted cost lines cross near 8e4 pairs.
AUTO_PAIR_THRESHOLD = 75_000


def estimate_pair_count(instance: Instance) -> int:
    """Estimate the within-lambda same-label (coverer, covered) pairs.

    The exact count — both directions, self-pairs included — is the
    work the Python family builder enumerates.  Per label, the estimate
    spreads the ``n`` posting values evenly over their span, so each
    post sees itself plus ``2 lambda n / span`` neighbours, capped at
    ``n``: ``n * min(n, 1 + 2 lambda n / span)``; a zero span counts all
    ``n * n``.  Where values bunch, as on the fig13 day, the real count
    is higher and the estimate reads low.
    """
    lam = instance.lam
    total = 0.0
    for label in instance.labels:
        plist = instance.posting(label)
        n = len(plist)
        if n == 0:
            continue
        span = plist[-1].value - plist[0].value
        per_post = n if span <= 0 else min(n, 1.0 + 2.0 * lam * n / span)
        total += n * per_post
    return int(total)


def choose_engine(instance: Instance) -> str:
    """Pick the GreedySC family builder for this instance.

    Returns ``"numpy"`` when the estimated pair volume is enough to
    amortise the vectorised builder's constant, ``"python"`` otherwise;
    the decision and the estimate are published as observability
    counters/gauges (the gauge keeps its ``probe_pairs`` name).
    """
    pairs = estimate_pair_count(instance)
    engine = "numpy" if pairs >= AUTO_PAIR_THRESHOLD else "python"
    if _obs.enabled():
        _obs.count(f"engine.auto.{engine}_selected")
        _obs.set_gauge("engine.auto.probe_pairs", pairs)
    return engine
