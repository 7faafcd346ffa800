"""Attribution test for the traced run, on a small slice of each workload.

Run it explicitly (the repository's own suite does not collect it)::

    python3 -m pytest -q digestbench/test_attribution.py

Two traced runs of one seed at ``--seconds 1`` per workload must:

* attribute every digest millisecond: the layers' self-times plus
  ``unattributed_ms`` add up to the digest wall time;
* leave less than a tenth of that wall time unattributed;
* print identical exact counts, and identical work ratios.

Quick checks ride along: live_views passes stay inside the day, rates
take the median time of blocks that do the same work, and times are
scaled to the reference core speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from layers import SELF_TIME_METRICS  # noqa: E402

# per-layer metrics that count work, not time: they must repeat exactly
EXACT = ("greedy_sc.pairs", "cache.hit_ratio", "view.read_share",
         "store.rebuild_ratio", "solves_per_digest", "gc.gen2_count")


def traced_run(workload: str, seed: int = 7):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
        cwd=str(BENCH.parent),
    )
    lines = completed.stdout.splitlines()
    counts = next(json.loads(line[len("counts "):]) for line in lines
                  if line.startswith("counts "))
    result = json.loads(lines[-1])
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    return counts, result, metrics


@pytest.mark.parametrize(
    "workload", ["cold_solve", "live_views", "cluster_scatter"])
def test_traced_run_attributes_digest_wall_time(workload):
    counts, result, metrics = traced_run(workload)
    assert result["correct"] and result["failed"] == 0

    layers = sum(metrics[name] for names in SELF_TIME_METRICS.values()
                 for name in names)
    wall = metrics["digest_mean_ms"]
    assert layers + metrics["unattributed_ms"] == pytest.approx(
        wall, rel=1e-9)
    assert metrics["unattributed_ms"] < 0.1 * wall

    counts_again, _, metrics_again = traced_run(workload)
    assert counts_again == counts
    assert {name: metrics_again[name] for name in EXACT} == \
        {name: metrics[name] for name in EXACT}

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, entry["unit"]) for name, entry in result["metrics"].items()
    ]


def test_live_views_passes_stay_inside_the_day():
    """However long the run, each live_views pass replays only documents
    the day holds after its preload, and the passes together do the
    steps ``--seconds`` asks for."""
    from workloads import LiveViews, day_slice

    workload = LiveViews()
    _, documents = day_slice(workload.scale)
    rest = [d for d in documents if d.timestamp >= workload.PRELOAD_END_S]
    for seconds in (1, 11, 30, 119):
        inputs = workload.make_inputs(1, seconds)
        steps = sum(1 for op in inputs.ops if op.request is None)
        assert steps * workload.BATCH <= len(rest)
        total = workload.STEPS_PER_SECOND * seconds
        assert total - inputs.passes < inputs.passes * steps <= total


def test_block_rate_takes_each_keys_median_time():
    """A stalled block moves a rate no further than it moves a median."""
    from run import block_rate
    from workloads import Block

    def block(key: int, digests: int, wall_s: float) -> Block:
        return Block(key=key, digests=digests, documents=0, wall_s=wall_s,
                     ingest_s=0.0, slowdown=1.0)

    blocks = [block(0, 10, 1.0) for _ in range(4)]
    blocks += [block(0, 10, 9.0), block(1, 5, 2.0)]
    rate = block_rate(blocks, lambda b: b.digests, lambda b: b.wall_s)
    assert rate == pytest.approx(55 / (5 * 1.0 + 2.0))


def test_times_are_scaled_to_the_reference_core_speed():
    """On a core measured twice as slow as the reference, times halve and
    rates double; the raw values are kept beside them."""
    from run import end_to_end
    from workloads import PROBE_REFERENCE_S, Block, DigestRecord, RunRecord

    digests = [DigestRecord(op=i, start=0.0, end=0.001 * (i + 1), ok=True,
                            uids=(i,), path="view", tag="all", slowdown=2.0)
               for i in range(21)]
    record = RunRecord(
        digests=digests, ingested=100, ingest_calls=10,
        began=0.0, ended=1.0, ingest_spans=[],
        blocks=[Block(key=0, digests=21, documents=100, wall_s=1.0,
                      ingest_s=0.5, slowdown=2.0)],
        probes=[2.0 * PROBE_REFERENCE_S] * 10,
    )
    outcome = {"record": record, "setup_times": [0.4, 0.6, 0.5],
               "setup_slowdowns": [2.0, 2.0, 2.0], "peak_rss_mb": 50.0}
    values, raw = end_to_end(outcome, ok_share=1.0)
    assert raw["core_slowdown"] == pytest.approx(2.0)
    assert raw["digest_p50_ms"] == pytest.approx(11.0)
    assert values["digest_p50_ms"] == pytest.approx(5.5)
    assert values["digest_tail_ms"] == pytest.approx(raw["digest_tail_ms"] / 2)
    assert values["digest_rps"] == pytest.approx(2 * 21.0)
    assert values["ingest_docs_per_s"] == pytest.approx(2 * 200.0)
    assert values["setup_s"] == pytest.approx(0.25)
