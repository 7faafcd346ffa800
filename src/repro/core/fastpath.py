"""Vectorised set-cover family construction for GreedySC's rescan.

``greedy_sc(..., strategy="rescan")`` materialises the within-lambda pair
family before its greedy rounds; the default lazy heap builds no family
(:mod:`repro.core.greedy_sc`).  The pure-Python builder pays per-pair
tuple allocation and hashing; this module replaces it with numpy:

* pairs are encoded as flat integers ``post_index * |L| + label_index``
  (int hashing is several times cheaper than tuple hashing, and the
  encoding is reversible);
* for each label, the within-lambda windows come from two
  ``numpy.searchsorted`` calls over the posting values, and the
  (coverer, covered) index pairs from ``repeat``/``arange`` arithmetic —
  no Python-level inner loop;
* the searches start from thresholds widened by a rounding margin, and
  the same exact subtraction the Python builder makes decides each
  pair at the float boundaries.

The per-label posting arrays come from the columnar snapshot
(:func:`repro.engine.columnar.snapshot`), built once per instance.

The output is semantically identical to
:func:`repro.core.greedy_sc.build_setcover_family` (property-tested pair
for pair), so ``greedy_sc(instance, strategy="rescan", engine="numpy")``
is a drop-in.  The ``ablation_greedy_heap`` benchmark's sibling,
``benchmarks/test_ablation_engine.py``, times the builders against each
other and against the lazy heap.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from ..observability import facade as _obs
from .instance import Instance

__all__ = ["build_family_encoded", "decode_pair"]


def _label_window_pairs(
    values: np.ndarray,
    offsets: np.ndarray,
    lam: float,
    label_index: int,
    n_labels: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One label's (coverer, covered-pair) arrays, fully vectorised.

    ``values``/``offsets`` are the label's posting values and the
    corresponding global post indices (the columnar snapshot's arrays).
    Returns ``(coverer_global, encoded, enumerated)``: for every
    within-lambda ordered pair, the covering post's global index and the
    covered pair's flat encoding; ``enumerated`` counts the widened
    candidates inspected before the exact filter.
    """
    # v - lam and v + lam round, and any number of values (one value
    # repeated, or distinct floats a few ulps apart) can sit between a
    # rounded threshold and the true boundary, so the search widens by
    # value, not by index.  A pair the filter keeps lies at most half an
    # ulp of lam beyond v -+ lam, and the two roundings in
    # v -+ lam -+ margin move a threshold by at most
    # 3 * (ulp(|v|) + ulp(lam)), so a margin of 4 * (ulp(|v|) + ulp(lam))
    # keeps every such pair inside the window.  The exact subtraction
    # filter below is the arbiter.
    spacing = np.spacing(np.abs(values))
    if lam < np.inf:
        spacing = spacing + np.spacing(lam)
    margin = 4.0 * spacing
    lo = np.searchsorted(values, values - lam - margin, side="left")
    hi = np.searchsorted(values, values + lam + margin, side="right")

    counts = hi - lo
    coverer_local = np.repeat(
        np.arange(len(values), dtype=np.int64), counts
    )
    # covered_local: for row j, the indices lo[j] .. hi[j]-1
    starts = np.repeat(lo, counts)
    within_row = (
        np.arange(counts.sum(), dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    covered_local = starts + within_row

    keep = np.abs(
        values[coverer_local] - values[covered_local]
    ) <= lam
    enumerated = int(counts.sum())
    coverer_local = coverer_local[keep]
    covered_local = covered_local[keep]

    encoded = offsets[covered_local] * n_labels + label_index
    coverer_global = offsets[coverer_local]
    return coverer_global, encoded, enumerated


def _update_family(
    family: List[Set[int]],
    coverer_global: np.ndarray,
    encoded: np.ndarray,
) -> None:
    """Merge one label's pair arrays into the family's Python sets,
    grouped per coverer so each set gets one bulk ``update``."""
    if len(coverer_global) == 0:
        return
    order = np.argsort(coverer_global, kind="stable")
    coverer_sorted = coverer_global[order]
    encoded_sorted = encoded[order]
    boundaries = np.flatnonzero(np.diff(coverer_sorted)) + 1
    groups = np.split(encoded_sorted, boundaries)
    group_owners = coverer_sorted[np.concatenate(([0], boundaries))]
    for owner, group in zip(group_owners, groups):
        family[int(owner)].update(group.tolist())


def build_family_encoded(
    instance: Instance,
) -> Tuple[List[Set[int]], Set[int], List[str]]:
    """The GreedySC family with integer-encoded pair elements.

    Returns ``(family, universe, label_order)``: ``family[k]`` holds the
    encoded pairs post ``k`` covers, and a pair encodes as
    ``post_index * len(label_order) + label_order.index(label)``.
    """
    from ..engine.columnar import snapshot

    snap = snapshot(instance)
    labels = list(snap.labels)
    n_labels = len(labels)
    lam = instance.lam

    family: List[Set[int]] = [set() for _ in instance.posts]
    universe: Set[int] = set()
    enumerated = 0
    kept = 0

    for label_index, label in enumerate(labels):
        values = snap.posting_values[label]
        if len(values) == 0:
            continue
        offsets = snap.posting_indices[label]
        coverer_global, encoded, label_enumerated = _label_window_pairs(
            values, offsets, lam, label_index, n_labels
        )
        enumerated += label_enumerated
        kept += len(coverer_global)
        _update_family(family, coverer_global, encoded)
        universe.update(
            (offsets * n_labels + label_index).tolist()
        )
    if _obs.enabled():
        # enumerated counts the widened windows before the exact filter —
        # comparable with the scalar builder's enumeration count
        _obs.count("fastpath.family_pairs_enumerated", enumerated)
        _obs.count("fastpath.family_pairs_kept", kept)
        _obs.count("fastpath.universe_size", len(universe))
    return family, universe, labels


def decode_pair(
    encoded: int, instance: Instance, labels: List[str]
) -> Tuple[int, str]:
    """Inverse of the encoding: ``(post uid, label)`` for a pair id."""
    post_index, label_index = divmod(encoded, len(labels))
    return instance.posts[post_index].uid, labels[label_index]
