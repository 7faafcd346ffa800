"""repro.cluster — sharded multi-node serving for the digest tier.

The cluster partitions the *label space* with consistent hashing:
each :class:`~repro.cluster.worker.WorkerNode` wraps one ordinary
:class:`~repro.service.DiversificationService` holding the documents
for its labels, and the :class:`~repro.cluster.router.ClusterRouter`
forwards a digest one owner group holds and otherwise gathers each
owner's rows and solves them — byte-identical to a single process
over the labels it served.  See ``docs/cluster.md``.
"""

from .frames import (
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    MAX_FRAME,
    TruncatedFrameError,
    encode_frame,
    read_frame,
)
from .harness import LocalCluster
from .hashring import HashRing
from .membership import DOWN, Membership, NodeState, UP
from .protocol import (
    ClusterError,
    NodeUnavailableError,
    ShardTimeoutError,
    WorkerFaultError,
    canonical_fingerprint,
    document_from_dict,
    document_to_dict,
)
from .router import ClusterConfig, ClusterResponse, ClusterRouter, \
    NodeClient
from .worker import WorkerNode, default_worker_config

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterResponse",
    "ClusterRouter",
    "DOWN",
    "FrameDecoder",
    "FrameError",
    "FrameTooLargeError",
    "HashRing",
    "LocalCluster",
    "MAX_FRAME",
    "Membership",
    "NodeClient",
    "NodeState",
    "NodeUnavailableError",
    "ShardTimeoutError",
    "TruncatedFrameError",
    "UP",
    "WorkerFaultError",
    "WorkerNode",
    "canonical_fingerprint",
    "default_worker_config",
    "document_from_dict",
    "document_to_dict",
    "encode_frame",
    "read_frame",
]
