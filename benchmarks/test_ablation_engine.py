"""Ablation — GreedySC family construction: pure Python vs numpy.

The Figure 13 deviation analysis attributes GreedySC's lambda-trend flip
to pair materialisation dominating at laptop densities.  This bench
quantifies how much the vectorised builder (`repro.core.fastpath`) buys
back, on the pair-heavy end of the sweep where it matters.  Only the
paper's rescan builds a family, so both builder columns run it; the
``windowed_ms`` column is the default lazy heap, which builds none.  Hard
assertion: identical covers; the timing rows document the speed-up.
"""

from repro.core.greedy_sc import greedy_sc
from repro.experiments.common import make_day_instance

from .conftest import report


def test_ablation_engine(benchmark):
    def run():
        rows = []
        for lam_min, scale in ((10.0, 0.01), (60.0, 0.01)):
            instance = make_day_instance(
                seed=0, num_labels=5, lam=lam_min * 60.0,
                scale=scale, duration=21_600.0,
            )
            python = greedy_sc(instance, strategy="rescan", engine="python")
            vectorised = greedy_sc(
                instance, strategy="rescan", engine="numpy"
            )
            windowed = greedy_sc(instance, strategy="lazy_heap")
            assert python.uids == vectorised.uids == windowed.uids
            rows.append(
                {
                    "lam_min": lam_min,
                    "posts": len(instance),
                    "cover": python.size,
                    "python_ms": round(python.elapsed * 1e3, 1),
                    "numpy_ms": round(vectorised.elapsed * 1e3, 1),
                    "speedup": round(
                        python.elapsed / max(vectorised.elapsed, 1e-9), 2
                    ),
                    "windowed_ms": round(windowed.elapsed * 1e3, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(rows, "Ablation: GreedySC family builder, python vs numpy")

    for row in rows:
        assert row["python_ms"] > 0 and row["numpy_ms"] > 0
        assert row["windowed_ms"] > 0
    # on the pair-heavy (large-lambda) end the vectorised builder should
    # not lose; exact speed-ups are hardware-dependent, so assert mildly
    heavy = rows[-1]
    assert heavy["speedup"] >= 0.8
