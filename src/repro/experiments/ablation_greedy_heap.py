"""Ablation — GreedySC candidate maintenance: linear rescan vs lazy heap.

Section 7.3 reports the authors abandoned a PriorityQueue because the
delete/re-insert churn on bursty data beat its asymptotic advantage, and
shipped a linear rescan instead.  This driver times both strategies on the
same instances (they produce identical covers; the tests assert that).
The rescan materialises the pair family and rescans it every round; the
``lazy_heap`` column builds no family: its heap runs over per-label
lambda-windows (:mod:`repro.core.greedy_sc`), so its time includes no
family construction.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.greedy_sc import greedy_sc
from .common import make_day_instance

DESCRIPTION = (
    "Ablation: GreedySC rescan over the pair family vs lazy heap over "
    "lambda-windows"
)

#: Overrides applied by the CLI's --full flag (paper-scale runs).
FULL_PARAMS = {'scale': 0.02, 'duration': 86_400.0}

STRATEGIES = ("rescan", "lazy_heap")


def run(
    seed: int = 0,
    sizes: tuple = (2, 5),
    lam_minutes: tuple = (10.0, 30.0),
    scale: float = 0.02,
    duration: float = 43_200.0,
) -> List[Dict[str, object]]:
    """One row per (|L|, lambda) with both strategies' time and size."""
    rows: List[Dict[str, object]] = []
    for num_labels in sizes:
        for lam_min in lam_minutes:
            instance = make_day_instance(
                seed=seed,
                num_labels=num_labels,
                lam=lam_min * 60.0,
                scale=scale,
                duration=duration,
            )
            row: Dict[str, object] = {
                "num_labels": num_labels,
                "lam_min": lam_min,
                "posts": len(instance),
            }
            for strategy in STRATEGIES:
                solution = greedy_sc(instance, strategy=strategy)
                row[f"{strategy}_ms"] = round(solution.elapsed * 1e3, 2)
                row[f"{strategy}_size"] = solution.size
            rows.append(row)
    return rows
