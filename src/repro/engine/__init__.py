"""Shared machinery beneath :mod:`repro.core`'s serial solvers.

Scan, Scan+ and GreedySC each have one implementation, in
:mod:`repro.core`; this package holds what the solvers and the serving
paths need around them:

* :mod:`~repro.engine.columnar` — the per-instance posting arrays the
  numpy GreedySC family builder reads (built once, cached weakly);
* :mod:`~repro.engine.auto` — the pair-count estimate behind the
  ``engine="auto"`` family-builder selection of GreedySC's rescan (the
  default lazy heap builds no family);
* :mod:`~repro.engine.sharding` — the gap-cut independence argument and
  the verifier-backed :func:`stitch_repair` the cluster router uses.

``docs/performance.md`` gives the measurements behind running each
solver serially.
"""

from .auto import AUTO_PAIR_THRESHOLD, choose_engine, estimate_pair_count
from .columnar import ColumnarInstance, snapshot
from .sharding import stitch_repair

__all__ = [
    # columnar snapshots
    "ColumnarInstance",
    "snapshot",
    # seam repair
    "stitch_repair",
    # auto engine selection
    "AUTO_PAIR_THRESHOLD",
    "estimate_pair_count",
    "choose_engine",
]
