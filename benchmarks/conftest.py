"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures at a scaled
configuration (see EXPERIMENTS.md for the scaling policy), prints the rows,
and asserts the *shape* the paper reports — who wins, what grows, where the
crossover sits.  ``benchmark.pedantic(..., rounds=1)`` is used because each
experiment is already an aggregate over instances; re-running it five times
would quintuple wall-clock for no statistical gain.

Each ``report`` call also writes its table to ``benchmarks/results/`` so
the regenerated artifacts survive pytest's output capturing — after a
bench run, that directory holds the reproduced paper tables as plain text.

The run additionally accumulates one bench trajectory
(:class:`repro.observability.bench.BenchTrajectory`): the throughput
benches record per-solver wall time, work counters, and solution size via
the ``bench_record`` fixture, and every ``report`` call attaches its raw
rows as a figure table.  At session end the document is validated and
written to ``benchmarks/results/BENCH_throughput.json`` — the artifact the
CI smoke job uploads and ``python -m repro.observability.bench
--validate`` guards.

``BENCH_SMOKE=1`` shrinks the throughput workload (and relaxes the
overhead gate) so the emission path can run in seconds on a CI runner.
"""

from __future__ import annotations

import os
import pathlib
import re

import pytest

from repro.evaluation.harness import format_table
from repro.observability.bench import BenchTrajectory, validate_bench

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_ARTIFACT = RESULTS_DIR / "BENCH_throughput.json"
SERVICE_ARTIFACT = RESULTS_DIR / "BENCH_service.json"
SLO_ARTIFACT = RESULTS_DIR / "BENCH_slo.json"
INGEST_ARTIFACT = RESULTS_DIR / "BENCH_ingest.json"
INCREMENTAL_ARTIFACT = RESULTS_DIR / "BENCH_incremental.json"
CLUSTER_ARTIFACT = RESULTS_DIR / "BENCH_cluster.json"
OBSERVABILITY_ARTIFACT = RESULTS_DIR / "BENCH_observability.json"
SMOKE = bool(os.environ.get("BENCH_SMOKE"))

_TRAJECTORY = BenchTrajectory("throughput")
_SERVICE_TRAJECTORY = BenchTrajectory("service")
_SLO_TRAJECTORY = BenchTrajectory("slo")
_INGEST_TRAJECTORY = BenchTrajectory("ingest")
_INCREMENTAL_TRAJECTORY = BenchTrajectory("incremental")
_CLUSTER_TRAJECTORY = BenchTrajectory("cluster")
_OBSERVABILITY_TRAJECTORY = BenchTrajectory("observability")


def report(rows, title: str) -> None:
    """Print an experiment's rows and persist them under results/."""
    table = format_table(rows, title=f"== {title} ==")
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")[:60]
    (RESULTS_DIR / f"{slug}.txt").write_text(table + "\n")
    _TRAJECTORY.record_figure(slug, rows)


@pytest.fixture(scope="session")
def bench_record():
    """Record one solver run into the session's bench trajectory."""
    return _TRAJECTORY.record_solver


@pytest.fixture(scope="session")
def service_record():
    """Record one serving-layer workload into the service trajectory
    (``BENCH_service.json``)."""
    return _SERVICE_TRAJECTORY.record_solver


@pytest.fixture(scope="session")
def service_figure():
    """Attach a latency/throughput table to the service trajectory."""
    return _SERVICE_TRAJECTORY.record_figure


@pytest.fixture(scope="session")
def slo_record():
    """Record one per-tenant SLO entry into the SLO trajectory
    (``BENCH_slo.json``)."""
    return _SLO_TRAJECTORY.record_solver


@pytest.fixture(scope="session")
def slo_figure():
    """Attach a per-tenant SLO/audit table to the SLO trajectory."""
    return _SLO_TRAJECTORY.record_figure


@pytest.fixture(scope="session")
def ingest_record():
    """Record one durable-ingest workload into the ingest trajectory
    (``BENCH_ingest.json``)."""
    return _INGEST_TRAJECTORY.record_solver


@pytest.fixture(scope="session")
def ingest_figure():
    """Attach a durability/recovery table to the ingest trajectory."""
    return _INGEST_TRAJECTORY.record_figure


@pytest.fixture(scope="session")
def incremental_record():
    """Record one incremental read-path workload into the incremental
    trajectory (``BENCH_incremental.json``)."""
    return _INCREMENTAL_TRAJECTORY.record_solver


@pytest.fixture(scope="session")
def incremental_figure():
    """Attach a view-vs-batch latency or repair-cost table to the
    incremental trajectory."""
    return _INCREMENTAL_TRAJECTORY.record_figure


@pytest.fixture(scope="session")
def cluster_record():
    """Record one sharded-serving workload into the cluster trajectory
    (``BENCH_cluster.json``)."""
    return _CLUSTER_TRAJECTORY.record_solver


@pytest.fixture(scope="session")
def cluster_figure():
    """Attach a nodes-vs-throughput or failover table to the cluster
    trajectory."""
    return _CLUSTER_TRAJECTORY.record_figure


@pytest.fixture(scope="session")
def observability_record():
    """Record one observability-overhead workload into the
    observability trajectory (``BENCH_observability.json``)."""
    return _OBSERVABILITY_TRAJECTORY.record_solver


@pytest.fixture(scope="session")
def observability_figure():
    """Attach an overhead/interval/sampling table to the
    observability trajectory."""
    return _OBSERVABILITY_TRAJECTORY.record_figure


def _emit(trajectory, artifact):
    RESULTS_DIR.mkdir(exist_ok=True)
    document = trajectory.write(artifact)
    validate_bench(artifact)
    print(
        f"\nBENCH trajectory: {artifact} "
        f"({len(document['solvers'])} solver entries, "
        f"{len(document['figures'])} figure tables)"
    )


def pytest_sessionfinish(session, exitstatus):
    # Each trajectory is emitted only when its benches ran; a figure-only
    # run has nothing a BENCH reader requires, so skip emission then.
    if _TRAJECTORY.solvers:
        _emit(_TRAJECTORY, BENCH_ARTIFACT)
    if _SERVICE_TRAJECTORY.solvers:
        _emit(_SERVICE_TRAJECTORY, SERVICE_ARTIFACT)
    if _SLO_TRAJECTORY.solvers:
        _emit(_SLO_TRAJECTORY, SLO_ARTIFACT)
    if _INGEST_TRAJECTORY.solvers:
        _emit(_INGEST_TRAJECTORY, INGEST_ARTIFACT)
    if _INCREMENTAL_TRAJECTORY.solvers:
        _emit(_INCREMENTAL_TRAJECTORY, INCREMENTAL_ARTIFACT)
    if _CLUSTER_TRAJECTORY.solvers:
        _emit(_CLUSTER_TRAJECTORY, CLUSTER_ARTIFACT)
    if _OBSERVABILITY_TRAJECTORY.solvers:
        _emit(_OBSERVABILITY_TRAJECTORY, OBSERVABILITY_ARTIFACT)
