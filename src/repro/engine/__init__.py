"""Shared machinery beneath :mod:`repro.core`'s serial solvers.

Scan, Scan+ and GreedySC each have one implementation, in
:mod:`repro.core`; this package holds what the solvers and the serving
paths need around them:

* :mod:`~repro.engine.columnar` — the per-instance posting arrays the
  numpy GreedySC family builder reads (built once, cached weakly);
* :mod:`~repro.engine.auto` — the pair-count estimate behind the
  ``engine="auto"`` family-builder selection of GreedySC's rescan (the
  default lazy heap builds no family).

``docs/performance.md`` gives the measurements behind running each
solver serially, and the gap-cut and label-block independence argument.
"""

from .auto import AUTO_PAIR_THRESHOLD, choose_engine, estimate_pair_count
from .columnar import ColumnarInstance, snapshot

__all__ = [
    # columnar snapshots
    "ColumnarInstance",
    "snapshot",
    # auto engine selection
    "AUTO_PAIR_THRESHOLD",
    "estimate_pair_count",
    "choose_engine",
]
