"""Incremental cover maintenance — materialized λ-cover views.

The CQRS split of ROADMAP item 2: the write path (ingest, stream feed,
durable replay) applies *deltas* to a shared projected-post store and to
per-(label-set, λ, algorithm) cover views; the read path serves the
maintained cover in near-O(1), with the batch solvers demoted to
cold-build / drift-repair / audit duty.  See ``docs/serving.md``
("Incremental read path") and ``docs/performance.md`` for the
maintenance rules and their paper grounding (Section 5 instant-decision
cache, StreamScan locality).
"""

from .registry import MAX_VIEWS, ViewKey, ViewRegistry
from .store import DocumentProjector, PostStore, StoreSnapshot
from .view import REBUILD_RATIO, REBUILD_SLACK, CoverView, ViewLedger

__all__ = [
    "CoverView",
    "DocumentProjector",
    "MAX_VIEWS",
    "PostStore",
    "REBUILD_RATIO",
    "REBUILD_SLACK",
    "StoreSnapshot",
    "ViewKey",
    "ViewLedger",
    "ViewRegistry",
]
