"""Columnar (struct-of-arrays) instance snapshots.

GreedySC's numpy family builder (:mod:`repro.core.fastpath`) wants the
global value array of an :class:`~repro.core.instance.Instance` and its
per-label posting lists as *index arrays* into it.  Building those from
the object model costs one pass over the posts.

A :class:`ColumnarInstance` materialises them **once per instance** and is
cached in a :class:`weakref.WeakKeyDictionary` (behind a lock, so callers
on several threads share one snapshot), so repeated solves of one
instance share the same arrays; the cache dies with the instance.  Its
only caller is GreedySC's paper-faithful rescan, which no served path
runs.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Tuple

import numpy as np

from ..core.instance import Instance

__all__ = ["ColumnarInstance", "snapshot"]


class ColumnarInstance:
    """Struct-of-arrays view of an instance (posts stay in value order).

    Attributes
    ----------
    lam:
        The instance's lambda threshold.
    labels:
        The label universe, sorted — label *index* means position here.
    values:
        ``float64[n]`` — every post's diversity value, ascending.
    posting_indices:
        label -> ``int64`` array of *global post indices* in ``LP(label)``
        order (which is value order, so each array is sorted).
    posting_values:
        label -> ``float64`` array, ``values[posting_indices[label]]``.
    """

    __slots__ = (
        "lam", "labels", "values", "posting_indices", "posting_values",
        "__weakref__",
    )

    def __init__(self, instance: Instance):
        posts = instance.posts
        self.lam = instance.lam
        self.labels: Tuple[str, ...] = tuple(sorted(instance.labels))
        self.values = np.fromiter(
            (p.value for p in posts), dtype=np.float64, count=len(posts)
        )
        buckets: Dict[str, List[int]] = {a: [] for a in self.labels}
        for k, p in enumerate(posts):
            for a in p.labels:
                buckets[a].append(k)
        self.posting_indices = {
            a: np.asarray(bucket, dtype=np.int64)
            for a, bucket in buckets.items()
        }
        self.posting_values = {
            a: self.values[idx] for a, idx in self.posting_indices.items()
        }

    def __len__(self) -> int:
        return len(self.values)


# Rescans of one instance may run on several threads at once; the lock
# makes build-and-insert atomic so one instance gets exactly one
# snapshot, never racing duplicates.
_CACHE: "weakref.WeakKeyDictionary[Instance, ColumnarInstance]" = (
    weakref.WeakKeyDictionary()
)
_CACHE_LOCK = threading.Lock()


def snapshot(instance: Instance) -> ColumnarInstance:
    """The cached columnar snapshot of ``instance`` (built on first use)."""
    snap = _CACHE.get(instance)
    if snap is None:
        with _CACHE_LOCK:
            snap = _CACHE.get(instance)
            if snap is None:
                snap = ColumnarInstance(instance)
                _CACHE[instance] = snap
    return snap
