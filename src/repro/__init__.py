"""repro — a full reproduction of *Multi-Query Diversification in
Microblogging Posts* (Cheng, Arvanitis, Chrobak, Hristidis; EDBT 2014).

The package implements the Multi-Query Diversification Problem (MQDP) and
its streaming variant end to end: the exact dynamic program, both
approximation families, the streaming adaptations, proportional diversity,
the NP-hardness reduction, and every substrate the paper's evaluation rests
on (inverted index, SimHash dedup, sentiment scoring, synthetic topic model
and tweet stream).

Quickstart::

    from repro import Instance, scan, greedy_sc, is_cover

    instance = Instance.from_specs(
        [(0, "a"), (30, "ab"), (65, "b"), (70, "ab"), (120, "a")], lam=40
    )
    solution = greedy_sc(instance)
    assert is_cover(instance, solution.posts)

See ``examples/quickstart.py`` for the guided tour and DESIGN.md for the
paper-to-module map.
"""

from .core import (
    CoverageModel,
    FixedLambda,
    Instance,
    InstantCover,
    Post,
    PostingList,
    ProportionalLambda,
    Solution,
    StreamGreedySC,
    StreamGreedySCPlus,
    OnlineDensityEstimator,
    StreamScan,
    StreamScanPlus,
    StreamScanProportional,
    VariableLambda,
    available_algorithms,
    brute_force,
    coverage_curve,
    exact_via_setcover,
    exact_variable,
    greedy_sc,
    greedy_sc_variable,
    is_cover,
    make_posts,
    max_coverage,
    opt,
    opt_size,
    optimal_size,
    register,
    scan,
    scan_plus,
    scan_variable,
    solve,
    unregister,
    stream_solve,
    uncovered_pairs,
    verify_cover,
)
from .errors import (
    AlgorithmBudgetExceeded,
    CheckpointError,
    EmissionInvariantError,
    IngestError,
    InvalidCoverError,
    InvalidInstanceError,
    LoaderError,
    ReproError,
    SanitizationError,
    StreamOrderError,
    UnknownAlgorithmError,
    WalCorruptionError,
)
from .stream import Emission, StreamResult, run_stream
from .resilience import (
    Checkpoint,
    CrashSchedule,
    DowngradeEvent,
    FaultInjector,
    KillPoint,
    QuarantineRecord,
    ResilienceConfig,
    SanitizationPolicy,
    StreamSupervisor,
    SupervisorHealth,
    run_supervised,
    solve_with_ladder,
)
from . import observability
from .ingest import (
    ConsumerGroup,
    IngestConfig,
    IngestPipeline,
    IngestTarget,
    WriteAheadLog,
)
from .pipeline import DigestResult, DiversificationPipeline
from .service import (
    DigestRequest,
    DiversificationService,
    ResultCache,
    ServiceConfig,
    ServiceResponse,
    Subscription,
)
from .viz import budget_bars, label_lanes, timeline

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data model
    "Post",
    "make_posts",
    "Instance",
    "PostingList",
    "Solution",
    # coverage
    "CoverageModel",
    "FixedLambda",
    "VariableLambda",
    "is_cover",
    "uncovered_pairs",
    "verify_cover",
    # batch solvers
    "opt",
    "opt_size",
    "brute_force",
    "exact_via_setcover",
    "optimal_size",
    "greedy_sc",
    "scan",
    "scan_plus",
    "solve",
    "register",
    "unregister",
    "available_algorithms",
    "max_coverage",
    "coverage_curve",
    # streaming
    "StreamScan",
    "StreamScanPlus",
    "InstantCover",
    "StreamGreedySC",
    "StreamGreedySCPlus",
    "StreamScanProportional",
    "OnlineDensityEstimator",
    "stream_solve",
    "run_stream",
    "Emission",
    "StreamResult",
    # proportional diversity
    "ProportionalLambda",
    "scan_variable",
    "greedy_sc_variable",
    "exact_variable",
    # resilience
    "StreamSupervisor",
    "SupervisorHealth",
    "SanitizationPolicy",
    "QuarantineRecord",
    "ResilienceConfig",
    "Checkpoint",
    "CrashSchedule",
    "DowngradeEvent",
    "FaultInjector",
    "KillPoint",
    "run_supervised",
    "solve_with_ladder",
    # durable ingest
    "IngestPipeline",
    "IngestTarget",
    "IngestConfig",
    "ConsumerGroup",
    "WriteAheadLog",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "InvalidCoverError",
    "AlgorithmBudgetExceeded",
    "StreamOrderError",
    "EmissionInvariantError",
    "SanitizationError",
    "CheckpointError",
    "IngestError",
    "WalCorruptionError",
    "LoaderError",
    "UnknownAlgorithmError",
    # pipeline facade
    "DiversificationPipeline",
    "DigestResult",
    # serving layer
    "DiversificationService",
    "ServiceConfig",
    "DigestRequest",
    "ServiceResponse",
    "Subscription",
    "ResultCache",
    # observability (metrics, tracing, exporters, bench trajectories)
    "observability",
    # visualisation
    "timeline",
    "label_lanes",
    "budget_bars",
]
