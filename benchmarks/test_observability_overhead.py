"""The facade's zero-overhead-when-disabled contract, measured.

``_scan_posts`` pays exactly one ``_obs.enabled()`` check per *call* (the
inner loop carries no counter: enabled runs derive the index advances
from the posting-list lengths after the loop), so disabled Scan must
track a hand-inlined reference within noise.  The gate is 5% on the min-of-rounds timing —
minima are robust to scheduler preemption, and the two loops are
interleaved so drift (thermal, frequency scaling) hits both sides alike.
``BENCH_SMOKE=1`` relaxes the gate for shared CI runners, where even
minima can wobble past 5%.
"""

import timeit

import pytest

from .conftest import SMOKE

from repro.core.scan import _scan_posts, order_labels, scan_label
from repro.experiments.common import make_effectiveness_instance
from repro.observability import facade

# min-of-ROUNDS over NUMBER-call samples per side
ROUNDS = 5
NUMBER = 10 if SMOKE else 30
MAX_RELATIVE_OVERHEAD = 0.50 if SMOKE else 0.05


def _reference_scan_posts(instance, label_order):
    """The pre-instrumentation Scan body: no facade check at all."""
    picks = []
    for label in label_order:
        picks.extend(scan_label(instance.posting(label), instance.lam))
    return picks


@pytest.fixture(scope="module")
def workload():
    return make_effectiveness_instance(
        seed=0, num_labels=3, lam=30.0, overlap=1.4,
        **({"duration": 60.0} if SMOKE else {}),
    )


def test_disabled_scan_within_overhead_budget(workload):
    facade.disable()
    labels = order_labels(workload)
    assert _scan_posts(workload, labels) == \
        _reference_scan_posts(workload, labels)

    instrumented = timeit.Timer(
        lambda: _scan_posts(workload, labels)
    )
    reference = timeit.Timer(
        lambda: _reference_scan_posts(workload, labels)
    )
    # warm-up, then interleave the samples
    instrumented.timeit(NUMBER)
    reference.timeit(NUMBER)
    instrumented_times, reference_times = [], []
    for _ in range(ROUNDS):
        instrumented_times.append(instrumented.timeit(NUMBER))
        reference_times.append(reference.timeit(NUMBER))

    best_instrumented = min(instrumented_times)
    best_reference = min(reference_times)
    overhead = best_instrumented / best_reference - 1.0
    print(
        f"\ndisabled-scan overhead: {overhead:+.2%} "
        f"(gate {MAX_RELATIVE_OVERHEAD:.0%}, "
        f"{ROUNDS} rounds x {NUMBER} calls)"
    )
    assert overhead <= MAX_RELATIVE_OVERHEAD, (
        f"disabled instrumentation costs {overhead:+.2%} on scan, "
        f"above the {MAX_RELATIVE_OVERHEAD:.0%} budget"
    )
