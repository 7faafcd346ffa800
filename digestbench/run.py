"""Digest-path benchmark: three fixed-work workloads, checked answers.

One workload, end-to-end metrics, tracing off::

    python3 digestbench/run.py --workload cold_solve --seed 1 --seconds 25 --trace 0

``--trace 1`` runs the same work with spans around every layer's entry
points in its last pass and prints the per-layer metrics instead; its
earlier, untraced passes give the tracing overhead.
``--workload all`` runs every workload in turn and prints one table.
``--steadiness N`` runs one workload N times on seeds ``seed .. seed+N-1``
and prints each end-to-end metric's median and quartiles, plus where the
tail percentile falls among the request classes.

Each run prints ``counts`` (exact; identical across runs of one seed),
``setups`` (each set-up's seconds), ``classes`` (latency by request
class), the metric table and, as its last
line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 1 means an output check failed
(or, in the modes that start child runs, that a child run failed or timed
out), 2 that the program source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Every run executes under this environment.  A pinned hash seed makes
# set iteration, and with it the allocation pattern and the gen-2
# collection schedule, repeat from run to run.  One malloc arena keeps
# peak RSS from depending on which executor thread happened to run a
# solve (identical live_views runs peaked at 96 or 106 MB without it).
PINNED_ENV = {"PYTHONHASHSEED": "0", "MALLOC_ARENA_MAX": "1"}
# digest_tail_ms is the highest percentile with ten samples beyond it
TAIL_BEYOND = 10
# speed probes run just before and just after each set-up, about 50 ms
# each side, to measure the core's slowdown around it
SETUP_PROBES = 150

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("digest_p50_ms", "ms"),
    ("digest_tail_ms", "ms"),
    ("digest_rps", "1/s"),
    ("ingest_docs_per_s", "1/s"),
    ("cover_size_mean", "posts"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args() -> argparse.Namespace:
    """Parse and check the arguments; exits 2 on a bad one."""
    parser = argparse.ArgumentParser(
        description="Digest-path benchmark (see digestbench/README.md).",
    )
    parser.add_argument(
        "--workload", required=True,
        choices=("cold_solve", "live_views", "cluster_scatter", "all"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25,
                        help="scales the fixed operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run the workload N times on N seeds")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def child_timeout(seconds: int) -> float:
    """Seconds a child run may take, with room to spare: the slowest
    child, a traced cold_solve run, takes about 1.5 times ``--seconds``."""
    return 120.0 + 4.0 * seconds


# -- statistics ------------------------------------------------------------


def tail_rank(samples: int) -> int:
    """Index, in ascending order, of the sample with ``TAIL_BEYOND``
    samples beyond it (the largest one when there are too few)."""
    if samples > TAIL_BEYOND:
        return samples - 1 - TAIL_BEYOND
    return samples - 1


def tail_percentile(samples: int) -> float:
    return 100.0 * (tail_rank(samples) + 1) / samples


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def block_rate(blocks, work: Callable[[Any], int],
               seconds: Callable[[Any], float]) -> float:
    """Work per second, with each block's time replaced by the median
    time of the blocks that do the same work (the same key).

    A stall or a slow stretch of the machine then moves the rate only as
    far as it moves a median, as with the latency percentiles, while the
    rate still weighs every block's work.
    """
    times: Dict[int, List[float]] = defaultdict(list)
    for block in blocks:
        times[block.key].append(seconds(block))
    medians = {key: statistics.median(values)
               for key, values in times.items()}
    return sum(work(block) for block in blocks) / sum(
        medians[block.key] for block in blocks)


# -- one workload in this interpreter -------------------------------------


class MaterializeCounter:
    """Counts ``PostStore.materialize`` calls (view instance rebuilds);
    a bare counter, cheap next to the rebuild it counts."""

    def __init__(self) -> None:
        self.calls = 0
        self._restore = None

    def install(self) -> None:
        from repro.incremental.store import PostStore

        original = PostStore.__dict__["materialize"]

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        PostStore.materialize = counted
        self._restore = lambda: setattr(PostStore, "materialize", original)

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None


async def drive(workload, inputs, tracer) -> Dict[str, Any]:
    """Set up ``workload.setups`` times (more if there are more passes);
    the last ``inputs.passes`` set-ups each carry one measured pass, the
    last of them traced when ``tracer`` is given.  Every target is torn
    down before the next set-up."""
    from workloads import PROBE_REFERENCE_S, RunRecord, speed_probe

    setup_times: List[float] = []
    setup_slowdowns: List[float] = []
    records = []
    gen2: List[float] = []
    counts: Dict[str, int] = defaultdict(int)
    counter = MaterializeCounter()

    def probe(phase: str, info: Dict[str, int]) -> None:
        if phase == "start" and info["generation"] == 2:
            gen2.append(time.perf_counter())

    total = max(workload.setups, inputs.passes)
    for index in range(total):
        gc.collect()
        probes = [speed_probe() for _ in range(SETUP_PROBES)]
        started = time.perf_counter()
        target = await workload.setup(inputs)
        setup_times.append(time.perf_counter() - started)
        probes += [speed_probe() for _ in range(SETUP_PROBES)]
        setup_slowdowns.append(
            statistics.fmean(probes) / PROBE_REFERENCE_S)
        try:
            if index < total - inputs.passes:
                continue
            traced = tracer if index == total - 1 else None
            gc.collect()
            before = workload.counts(target)
            counter.install()
            gc.callbacks.append(probe)
            if traced is not None:
                traced.install()
            try:
                records.append(await workload.run(target, inputs))
            finally:
                if traced is not None:
                    traced.uninstall()
                gc.callbacks.remove(probe)
                counter.uninstall()
            after = workload.counts(target)
            for key in after:
                counts[key] += after[key] - before[key]
        finally:
            await workload.teardown(target)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = RunRecord.merge(records)
    counts.update({
        "passes": len(records),
        "digests": len(record.digests),
        "ingest_calls": record.ingest_calls,
        "ingested": record.ingested,
        "store_rebuilds": counter.calls,
        "gen2": len(gen2),
        "cover_size_sum": sum(len(d.uids) for d in record.digests),
    })
    return {
        "record": record,
        "passes": records,
        "setup_times": setup_times,
        "setup_slowdowns": setup_slowdowns,
        "peak_rss_mb": peak_rss_mb,
        "counts": dict(counts),
        "gen2": gen2,
    }


def request_classes(record, gen2: List[float]) -> List[str]:
    """Each digest's class: its serve path and label set, plus ``+gen2``
    when a full collection started inside it."""
    classes = []
    for digest in record.digests:
        hit = any(digest.start <= moment <= digest.end for moment in gen2)
        classes.append(f"{digest.path}:{digest.tag}" + ("+gen2" if hit
                                                         else ""))
    return classes


def class_report(record, gen2: List[float]) -> Dict[str, Any]:
    """Latency by class, and where the tail sample sits among them: the
    class of the sample at the tail rank and how many neighbours on each
    side of it in latency order share that class."""
    classes = request_classes(record, gen2)
    order = sorted(range(len(record.digests)),
                   key=lambda i: record.digests[i].latency_s)
    rank = tail_rank(len(order))
    tail_class = classes[order[rank]]
    below = 0
    while rank - below - 1 >= 0 and \
            classes[order[rank - below - 1]] == tail_class:
        below += 1
    above = 0
    while rank + above + 1 < len(order) and \
            classes[order[rank + above + 1]] == tail_class:
        above += 1
    gen2_below = sum(1 for i in order[:rank]
                     if classes[i].endswith("+gen2"))
    stats: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(classes)):
        latencies = sorted(1000.0 * record.digests[i].latency_s
                           for i, c in enumerate(classes) if c == name)
        stats[name] = {
            "count": len(latencies),
            "min_ms": latencies[0],
            "p50_ms": statistics.median(latencies),
            "max_ms": latencies[-1],
        }
    return {
        "tail_percentile": tail_percentile(len(order)),
        "tail_class": tail_class,
        "same_class_below": below,
        "same_class_above": above,
        "gen2_digests": sum(1 for c in classes if c.endswith("+gen2")),
        "gen2_below_tail": gen2_below,
        "classes": stats,
    }


def end_to_end(outcome: Dict[str, Any], ok_share: float
               ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics, and the raw times and rates they scale.

    Times and rates are reported at the reference core speed: each
    digest's latency and each block's times are divided by the slowdown
    measured in that block, each set-up's time by the slowdown measured
    around it (``workloads.speed_probe``).  ``raw`` holds the unscaled
    values and the run's mean slowdown.
    """
    from workloads import PROBE_REFERENCE_S

    record = outcome["record"]

    def latency_metrics(latencies: List[float]) -> Tuple[float, float]:
        latencies = sorted(latencies)
        return (statistics.median(latencies),
                latencies[tail_rank(len(latencies))])

    def rates(scale: bool) -> Tuple[float, float]:
        def slowdown(block) -> float:
            return block.slowdown if scale else 1.0
        return (
            block_rate(record.blocks, lambda b: b.digests,
                       lambda b: b.wall_s / slowdown(b)),
            block_rate(record.blocks, lambda b: b.documents,
                       lambda b: b.ingest_s / slowdown(b)),
        )

    p50, tail = latency_metrics(
        [1000.0 * d.latency_s / d.slowdown for d in record.digests])
    rps, ingest = rates(scale=True)
    raw_p50, raw_tail = latency_metrics(
        [1000.0 * d.latency_s for d in record.digests])
    raw_rps, raw_ingest = rates(scale=False)
    raw = {
        "digest_p50_ms": raw_p50,
        "digest_tail_ms": raw_tail,
        "digest_rps": raw_rps,
        "ingest_docs_per_s": raw_ingest,
        "setup_s": statistics.median(outcome["setup_times"]),
        "core_slowdown": statistics.fmean(record.probes) / PROBE_REFERENCE_S,
    }
    values = {
        "digest_p50_ms": p50,
        "digest_tail_ms": tail,
        "digest_rps": rps,
        "ingest_docs_per_s": ingest,
        "cover_size_mean": statistics.fmean(
            len(d.uids) for d in record.digests),
        "ok_share": ok_share,
        "setup_s": statistics.median(
            seconds / slowdown for seconds, slowdown in zip(
                outcome["setup_times"], outcome["setup_slowdowns"])),
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    return values, raw


def print_table(metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def run_child(workload: str, seed: int, seconds: int, trace: int
              ) -> Tuple[int, str]:
    """Run one workload in a fresh interpreter; waits for it to end.

    A child that overruns ``child_timeout`` is killed and reported as a
    failed run (status 1) with whatever it printed.
    """
    timeout = child_timeout(seconds)
    try:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=timeout,
            cwd=str(ROOT), check=False,
        )
    except subprocess.TimeoutExpired as expired:
        print(f"digestbench: {workload} seed {seed} did not finish in "
              f"{timeout:.0f} s", file=sys.stderr)
        partial = expired.stdout or b""
        if isinstance(partial, bytes):
            partial = partial.decode("utf-8", "replace")
        return 1, partial
    return completed.returncode, completed.stdout


def parse_output(stdout: str) -> Dict[str, Any]:
    parsed: Dict[str, Any] = {}
    lines = stdout.strip().splitlines()
    for line in lines:
        for key in ("counts", "classes", "setups", "raw"):
            if line.startswith(key + " "):
                parsed[key] = json.loads(line[len(key) + 1:])
    if lines:
        try:
            parsed["result"] = json.loads(lines[-1])
        except ValueError:
            pass
    return parsed


def run_one(args: argparse.Namespace) -> int:
    import checks
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.seconds,
                                  min_passes=2 if args.trace else 1)
    tracer = layers.Tracer() if args.trace else None
    outcome = asyncio.run(drive(workload, inputs, tracer))
    record = outcome["record"]

    verdicts = checks.check(args.workload, inputs, record, args.seed)
    attempted = len(record.digests)
    failed = verdicts.failed
    ok_share = (attempted - failed) / attempted

    print(f"digestbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"digests={attempted} tail=p{tail_percentile(attempted):.4g}")
    print("counts " + json.dumps(outcome["counts"], sort_keys=True))
    print("setups " + json.dumps(outcome["setup_times"]))
    print("classes " + json.dumps(
        class_report(record, outcome["gen2"]), sort_keys=True))
    for message in verdicts.failures:
        print(f"CHECK FAILED: {message}")

    if tracer is None:
        values, raw = end_to_end(outcome, ok_share)
        print("raw " + json.dumps(raw, sort_keys=True))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    else:
        *untraced, traced = outcome["passes"]
        slowdown = statistics.fmean(
            traced.probes) / workloads.PROBE_REFERENCE_S
        metrics = layers.layer_metrics(tracer, traced, slowdown)
        metrics["core_slowdown"] = (slowdown, "ratio")
        traced_p50 = statistics.median(
            1000.0 * d.latency_s / d.slowdown for d in traced.digests)
        untraced_p50 = statistics.median(
            1000.0 * d.latency_s / d.slowdown
            for r in untraced for d in r.digests)
        metrics["trace.digest_p50_ms"] = (traced_p50, "ms")
        metrics["trace.untraced_p50_ms"] = (untraced_p50, "ms")
        metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50,
                                           "ratio")
        OUT.mkdir(exist_ok=True)
        intervals = sorted(
            [(d.start, d.end, d.op) for d in traced.digests]
            + traced.ingest_spans
        )
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}"
                     ".jsonl.gz", intervals)
    print_table(metrics)
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


# -- several runs, each in a fresh interpreter -----------------------------


def run_all(args: argparse.Namespace) -> int:
    names = ("cold_solve", "live_views", "cluster_scatter")
    results: Dict[str, Any] = {}
    status = 0
    for name in names:
        code, stdout = run_child(name, args.seed, args.seconds, args.trace)
        print(stdout, end="")
        result = parse_output(stdout).get("result")
        if code != 0 or result is None:
            status = 1
        results[name] = result
    metric_names: List[str] = []
    units: Dict[str, str] = {}
    for result in results.values():
        for name, entry in (result or {}).get("metrics", {}).items():
            if name not in units:
                metric_names.append(name)
                units[name] = entry["unit"]
    print(f"\n{'metric':<26} {'unit':<8}" + "".join(
        f" {name:>16}" for name in names))
    for metric in metric_names:
        cells = []
        for name in names:
            entry = (results[name] or {}).get("metrics", {}).get(metric)
            cells.append(f" {entry['value']:>16.6g}" if entry
                         else f" {'-':>16}")
        print(f"{metric:<26} {units[metric]:<8}" + "".join(cells))
    print(json.dumps(results))
    return status


def steadiness(args: argparse.Namespace) -> int:
    """Repeat one workload on consecutive seeds; report the spread of
    each metric and the class the tail sample falls in on every run."""
    if args.workload == "all":
        print("digestbench: --steadiness needs one workload",
              file=sys.stderr)
        return 2
    runs = []
    for offset in range(args.steadiness):
        seed = args.seed + offset
        code, stdout = run_child(args.workload, seed, args.seconds,
                                 args.trace)
        parsed = parse_output(stdout)
        if code != 0 or "result" not in parsed:
            print(stdout, end="")
            print(f"digestbench: run on seed {seed} failed",
                  file=sys.stderr)
            return 1
        runs.append((seed, parsed))
        classes = parsed["classes"]
        print(f"seed {seed}: tail p{classes['tail_percentile']:.4g} in "
              f"{classes['tail_class']} "
              f"({classes['same_class_below']} below, "
              f"{classes['same_class_above']} above in the same class; "
              f"{classes['gen2_below_tail']} of "
              f"{classes['gen2_digests']} gen-2 digests below it)")
        print(f"  counts {json.dumps(parsed['counts'], sort_keys=True)}")
        print("  setups " + " ".join(f"{t:.3f}" for t in parsed["setups"]))
        print("  " + " ".join(
            f"{name}={entry['value']:.5g}"
            for name, entry in parsed["result"]["metrics"].items()))

    def table(title: str, rows: List[Dict[str, float]]) -> None:
        print(f"\n{title:<26} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8}")
        for name in rows[0]:
            q1, median, q3 = quartiles([row[name] for row in rows])
            spread = (q3 - q1) / median if median else 0.0
            print(f"{name:<26} {q1:>12.6g} {median:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f}")

    table("metric", [
        {name: entry["value"]
         for name, entry in parsed["result"]["metrics"].items()}
        for _, parsed in runs
    ])
    if all("raw" in parsed for _, parsed in runs):
        table("raw, before scaling", [parsed["raw"] for _, parsed in runs])
    print("\nclass latencies (ms) on the last run:")
    for name, stats in runs[-1][1]["classes"]["classes"].items():
        print(f"  {name:<40} n={stats['count']:<5} "
              f"min={stats['min_ms']:.2f} p50={stats['p50_ms']:.2f} "
              f"max={stats['max_ms']:.2f}")
    return 0


def main() -> int:
    args = parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"digestbench: no program source under {SRC}",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        return run_all(args)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
