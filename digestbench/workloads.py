"""The three digest workloads: seeded inputs, set-up, and the measured loop.

Every workload replays the fig13 day slice (``make_day_instance`` at the
ROADMAP's seed, |L| = 5, lambda = 300 s) with each post rendered back into
a keyword document, so the service's matcher reprojects exactly the
slice's labels.  The workload seed only orders the operations: the
multiset of requests is the same for every seed, so two seeds do nearly
the same work (on ``live_views`` the order of reads moves view rebuilds
and cover sizes a little).  Everything is generated before the
service exists, and one closed-loop client drives it.

The op count is a fixed function of ``--seconds`` (``*_PER_SECOND``
below), never a time budget: a slower build takes longer instead of doing
less work, so cover sizes, solver runs, cache and view hits and the gen-2
collection schedule repeat exactly for one seed.  The ops are split into
passes, each on a fresh set-up, and each pass into blocks; blocks with
the same key do the same work, which is what lets a rate take the median
of their times (``run.block_rate``).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import DigestRequest, DiversificationService, ServiceConfig
from repro.cluster.harness import LocalCluster
from repro.cluster.worker import default_worker_config
from repro.experiments.common import make_day_instance
from repro.index.inverted_index import Document
from repro.index.query import TopicQuery

DAY_SEED = 20140328
NUM_LABELS = 5
LAM = 300.0
LABELS: Tuple[str, ...] = tuple(f"q{i}" for i in range(NUM_LABELS))
# uids of off-topic documents start here, far above any day-slice uid
OFF_TOPIC_UID = 10_000_000


def queries() -> List[TopicQuery]:
    return [TopicQuery(label, [f"kw{label}"]) for label in LABELS]


def day_slice(scale: float):
    """The fig13 day posts and their keyword documents, in time order."""
    instance = make_day_instance(
        seed=DAY_SEED, num_labels=NUM_LABELS, lam=LAM, scale=scale,
    )
    documents = [
        Document(
            post.uid,
            post.value,
            " ".join(sorted(f"kw{label}" for label in post.labels))
            + f" body{post.uid}",
        )
        for post in instance.posts
    ]
    return instance.posts, documents


def off_topic(rng: random.Random, count: int) -> List[Document]:
    """Documents that match no query, at seeded times inside the day.

    They let ``cold_solve`` and ``cluster_scatter`` report
    ``ingest_docs_per_s`` without changing any cover.  They are not free:
    a service keeps them in its corpus, so every later solve re-matches
    them, and each ingest call re-keys the cache entries it carries into
    the new epoch; a cluster router matches and drops them before any
    worker.  The rates that use them were chosen, not measured.
    """
    return [
        Document(
            OFF_TOPIC_UID + index,
            rng.uniform(0.0, 86_400.0),
            f"chatter body{OFF_TOPIC_UID + index}",
        )
        for index in range(count)
    ]


# The speed probe's CPU time on an uncontended core of the reference host
# (a 2-vCPU KVM guest, Intel Xeon, Python 3.11): the median of 3,000
# probes in a quiet minute there.  Times are reported at this core speed.
PROBE_REFERENCE_S = 0.000175


def speed_probe() -> float:
    """Run a fixed pure-Python kernel and return the CPU seconds it took
    on this thread.

    The kernel does the interpreter work the digest path is made of: dict
    updates, tuple and string building, a keyed sort.  A core whose
    sibling hyperthread another tenant keeps busy runs it, and the digest
    path, about 1.6 times slower, and the share of time that happens
    drifts over minutes; the mean of these times over a stretch of a run,
    over ``PROBE_REFERENCE_S``, measures the core's slowdown there.  CPU
    time, not wall time, so a wait for the interpreter lock or for the
    host is not taken for a slow core.
    """
    start = time.thread_time()
    counts: Dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    sorted(((i, str(i)) for i in range(200)), key=lambda pair: pair[1])
    return time.thread_time() - start


def label_tag(labels: Optional[Tuple[str, ...]]) -> str:
    return "all" if labels is None else "+".join(labels)


@dataclass(frozen=True)
class Op:
    """One step of the closed loop: an ingest batch or a digest."""

    documents: Tuple[Document, ...] = ()
    request: Optional[DigestRequest] = None
    # the ingest step this digest follows (live_views' window checks)
    step: int = 0


@dataclass
class Inputs:
    """Everything a run needs, generated from the seed up front.

    ``ops`` is one pass; the run makes ``passes`` of them, each on a fresh
    set-up, and times them in blocks of ``block_ops`` ops.
    """

    posts: Tuple[Any, ...]
    preload: List[Document]
    warmup: List[DigestRequest]
    ops: List[Op]
    passes: int
    block_ops: int
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DigestRecord:
    """What the checks need from one served digest, and nothing more."""

    op: int
    start: float
    end: float
    ok: bool
    uids: Tuple[int, ...]
    path: str
    tag: str
    # the core slowdown measured in this digest's block
    slowdown: float = 1.0

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class Block:
    """``block_ops`` consecutive ops of one pass and the time they took."""

    # blocks with one key do the same work (``Workload.block_key``)
    key: int
    digests: int
    documents: int
    wall_s: float
    ingest_s: float
    # the block's mean speed-probe time over PROBE_REFERENCE_S
    slowdown: float


@dataclass
class RunRecord:
    """One measured pass, or several merged (``RunRecord.merge``)."""

    digests: List[DigestRecord]
    ingested: int
    ingest_calls: int
    began: float
    ended: float
    # (start, end, op index) of every ingest call
    ingest_spans: List[Tuple[float, float, int]]
    blocks: List[Block]
    # CPU seconds of each speed probe, one before every ingest op
    probes: List[float]

    @classmethod
    def merge(cls, records: List["RunRecord"]) -> "RunRecord":
        return cls(
            digests=[d for r in records for d in r.digests],
            ingested=sum(r.ingested for r in records),
            ingest_calls=sum(r.ingest_calls for r in records),
            began=records[0].began,
            ended=records[-1].ended,
            ingest_spans=[s for r in records for s in r.ingest_spans],
            blocks=[b for r in records for b in r.blocks],
            probes=[p for r in records for p in r.probes],
        )


class Workload:
    """Base for the three workloads; subclasses fill in the specifics."""

    name = ""
    # set-ups per run, at least one per pass; setup_s is their median
    setups = 5

    def make_inputs(self, seed: int, seconds: int,
                    min_passes: int = 1) -> Inputs:
        """The run's inputs; its ops are split into at least
        ``min_passes`` passes (a traced run needs an untraced one)."""
        raise NotImplementedError

    def block_key(self, index: int, ops: int) -> int:
        """The key of a pass's ``index``-th block of ``ops`` ops.  Here
        every full block is alike, because a pass repeats one round of
        requests whose order alone varies."""
        return ops

    async def setup(self, inputs: Inputs) -> Any:
        raise NotImplementedError

    async def teardown(self, target: Any) -> None:
        raise NotImplementedError

    async def ingest(self, target: Any, documents) -> None:
        raise NotImplementedError

    async def digest(self, target: Any, request: DigestRequest):
        """Serve one request; returns ``(ok, cover uids, path)``."""
        raise NotImplementedError

    def counts(self, target: Any) -> Dict[str, int]:
        """The program's own cumulative counters for this target."""
        raise NotImplementedError

    async def run(self, target: Any, inputs: Inputs) -> RunRecord:
        """One measured pass: every op in order, one at a time."""
        clock = time.perf_counter
        digests: List[DigestRecord] = []
        ingest_spans: List[Tuple[float, float, int]] = []
        blocks: List[Block] = []
        probes: List[float] = []
        ingested = 0
        began = block_began = clock()
        block_digests = block_docs = block_probes = 0
        block_ingest_s = block_probe_s = 0.0
        for index, op in enumerate(inputs.ops):
            if op.request is None:
                start = clock()
                probes.append(speed_probe())
                block_probes += 1
                # the probe is not the program's work: out of the block
                block_probe_s += clock() - start
                start = clock()
                await self.ingest(target, op.documents)
                end = clock()
                block_ingest_s += end - start
                ingested += len(op.documents)
                block_docs += len(op.documents)
                ingest_spans.append((start, end, index))
            else:
                start = clock()
                ok, uids, path = await self.digest(target, op.request)
                end = clock()
                block_digests += 1
                digests.append(DigestRecord(
                    op=index, start=start, end=end, ok=ok, uids=uids,
                    path=path, tag=label_tag(op.request.labels),
                ))
            size = index % inputs.block_ops + 1
            if size == inputs.block_ops or index == len(inputs.ops) - 1:
                # every block starts with an ingest op, so it has a probe
                slowdown = statistics.fmean(
                    probes[-block_probes:]) / PROBE_REFERENCE_S
                for digest in digests[len(digests) - block_digests:]:
                    digest.slowdown = slowdown
                blocks.append(Block(
                    key=self.block_key(len(blocks), size),
                    digests=block_digests, documents=block_docs,
                    wall_s=end - block_began - block_probe_s,
                    ingest_s=block_ingest_s, slowdown=slowdown,
                ))
                block_began = end
                block_digests = block_docs = block_probes = 0
                block_ingest_s = block_probe_s = 0.0
        return RunRecord(
            digests=digests,
            ingested=ingested,
            ingest_calls=len(ingest_spans),
            began=began,
            ended=clock(),
            ingest_spans=ingest_spans,
            blocks=blocks,
            probes=probes,
        )


def _outcome(response, path: str) -> Tuple[bool, Tuple[int, ...], str]:
    result = response.result
    ok = response.status == "ok" and result is not None
    uids = tuple(post.uid for post in result.posts) if result else ()
    return ok, uids, path


def _service_counts(services) -> Dict[str, int]:
    counts = {"solves": 0, "cache_hits": 0, "view_reads": 0}
    for service in services:
        counts["solves"] += service.solves
        counts["cache_hits"] += service.cache.stats.hits
        counts["view_reads"] += service.introspect()["views"]["hits"]
    return counts


class ServiceWorkload(Workload):
    """A single-process :class:`DiversificationService` workload."""

    def config(self) -> ServiceConfig:
        return ServiceConfig(dedup_distance=None)

    async def setup(self, inputs: Inputs) -> DiversificationService:
        service = DiversificationService(queries(), self.config())
        service.ingest(inputs.preload)
        for request in inputs.warmup:
            response = await service.digest(request)
            if response.status != "ok":
                raise RuntimeError(
                    f"warm-up digest failed: {response.reason}"
                )
        return service

    async def teardown(self, service: DiversificationService) -> None:
        service.close()

    async def ingest(self, service, documents) -> None:
        service.ingest(documents)

    async def digest(self, service, request):
        response = await service.digest(request)
        return _outcome(response, "cache" if response.cached else (
            "view" if response.view else "solve"))

    def counts(self, service) -> Dict[str, int]:
        return _service_counts([service])


class ColdSolve(ServiceWorkload):
    """Full-label-set digests at a fresh lambda each: every digest misses
    the cache and every view, so each runs match -> instance -> GreedySC."""

    name = "cold_solve"
    scale = 0.002
    # A 32-entry result cache (the default holds 256) fills within the
    # first 32 digests; from then on the heap, and with it every gen-2
    # pause, stays level.  With the default, each gen-2 pause was larger
    # than the one before, the tail sample sat on that staircase, and it
    # spread 0.26 over ten seeds.
    CACHE_CAPACITY = 32
    # 200 digests at --seconds 25: about one in eight hits a gen-2
    # collection, most of them at the level heap, and the tail sample
    # (10 beyond it) sits among those
    DIGESTS_PER_SECOND = 8
    # a block is 20 digests, 1.5 to 3 s, with two or three gen-2 pauses
    BLOCK_DIGESTS = 20
    OFF_TOPIC_PER_DIGEST = 2
    # lambdas step by 10 ms from 300 s: no lambda repeats in a pass, so
    # every request misses the cache
    LAM_STEP = 0.01

    def config(self) -> ServiceConfig:
        return ServiceConfig(dedup_distance=None,
                             cache_capacity=self.CACHE_CAPACITY)

    def make_inputs(self, seed: int, seconds: int,
                    min_passes: int = 1) -> Inputs:
        rng = random.Random(seed)
        posts, documents = day_slice(self.scale)
        count = self.DIGESTS_PER_SECOND * seconds // min_passes
        offsets = list(range(count))
        rng.shuffle(offsets)
        chatter = off_topic(rng, count * self.OFF_TOPIC_PER_DIGEST)
        ops: List[Op] = []
        for index, offset in enumerate(offsets):
            batch = chatter[index * self.OFF_TOPIC_PER_DIGEST:
                            (index + 1) * self.OFF_TOPIC_PER_DIGEST]
            ops.append(Op(documents=tuple(batch)))
            ops.append(Op(request=DigestRequest(
                lam=LAM + offset * self.LAM_STEP,
            )))
        # warm-up lambdas sit below the measured ones
        warmup = [DigestRequest(lam=LAM - (k + 1) * self.LAM_STEP)
                  for k in range(3)]
        return Inputs(posts=posts, preload=documents, warmup=warmup,
                      ops=ops, passes=min_passes,
                      block_ops=2 * self.BLOCK_DIGESTS)


class LiveViews(ServiceWorkload):
    """Time-ordered replay of the day against maintained views: ingest a
    small batch, then read a few digests over a seeded label-set mix."""

    name = "live_views"
    scale = 0.02
    WINDOW_S = 4 * 3600.0
    PRELOAD_END_S = 6 * 3600.0
    STEPS_PER_SECOND = 80
    BATCH = 8
    READS_PER_STEP = 5
    # A pass replays at most 1,199 steps of the 1,201 the day holds after
    # the preload: a run's steps are split into passes of about
    # PASS_STEPS each.  Passes are short so the output checks, which
    # verify each served cover once, stay short too.
    PASS_STEPS = 600
    # a block is 100 steps, about 1 s; each pass repeats the same blocks
    BLOCK_STEPS = 100
    # at --seconds 25, three passes of 666 steps, one per set-up
    setups = 3
    MENU: Tuple[Optional[Tuple[str, ...]], ...] = (
        None,
        ("q0",),
        ("q3",),
        ("q1", "q2"),
        ("q0", "q4"),
        ("q1", "q3", "q4"),
    )

    def config(self) -> ServiceConfig:
        return ServiceConfig(dedup_distance=None, view_window=self.WINDOW_S)

    def block_key(self, index: int, ops: int) -> int:
        # the replay's blocks differ through the day; every pass repeats
        # them, so blocks at one position do the same work
        return index

    def make_inputs(self, seed: int, seconds: int,
                    min_passes: int = 1) -> Inputs:
        rng = random.Random(seed)
        posts, documents = day_slice(self.scale)
        preload = [d for d in documents if d.timestamp < self.PRELOAD_END_S]
        rest = documents[len(preload):]
        total = self.STEPS_PER_SECOND * seconds
        passes = max(min_passes, total // self.PASS_STEPS, 1)
        steps = total // passes
        # each round asks every menu entry once, in seeded order, so the
        # label-set mix is identical for every seed
        mix: List[Optional[Tuple[str, ...]]] = []
        while len(mix) < steps * self.READS_PER_STEP:
            round_ = list(self.MENU)
            rng.shuffle(round_)
            mix.extend(round_)
        ops: List[Op] = []
        for step in range(steps):
            batch = rest[step * self.BATCH:(step + 1) * self.BATCH]
            ops.append(Op(documents=tuple(batch), step=step))
            for read in range(self.READS_PER_STEP):
                labels = mix[step * self.READS_PER_STEP + read]
                ops.append(Op(
                    request=DigestRequest(lam=LAM, labels=labels),
                    step=step,
                ))
        warmup = [DigestRequest(lam=LAM, labels=labels)
                  for labels in self.MENU]
        return Inputs(
            posts=posts, preload=preload, warmup=warmup, ops=ops,
            passes=passes,
            block_ops=self.BLOCK_STEPS * (1 + self.READS_PER_STEP),
            params={"window": self.WINDOW_S, "batch": self.BATCH},
        )


class ClusterScatter(Workload):
    """Scan+ digests through a 3-worker in-process cluster whose workers
    answer from their caches: the time goes to the wire and the merge."""

    name = "cluster_scatter"
    scale = 0.002
    NODES = 3
    ALGORITHM = "scan+"
    # 75 rounds at --seconds 25
    ROUNDS_PER_SECOND = 3
    # a block is 5 rounds, 1 to 1.5 s
    BLOCK_ROUNDS = 5
    # four per ingest call: with one, the fixed cost of a router call
    # (about 40 us) was most of what ingest_docs_per_s timed, and any
    # collection inside one call moved it
    OFF_TOPIC_PER_DIGEST = 4
    # the full set, the request that ships the most, is asked four times
    # a round so the tail sample sits inside its gen-2 class
    FULL_SET_PER_ROUND = 4

    def menu(self) -> List[Optional[Tuple[str, ...]]]:
        pairs = [(a, b) for i, a in enumerate(LABELS) for b in LABELS[i + 1:]]
        return pairs + [("q1", "q2", "q4")] + [None] * self.FULL_SET_PER_ROUND

    def make_inputs(self, seed: int, seconds: int,
                    min_passes: int = 1) -> Inputs:
        rng = random.Random(seed)
        posts, documents = day_slice(self.scale)
        menu = self.menu()
        rounds = max(1, self.ROUNDS_PER_SECOND * seconds // min_passes)
        mix: List[Optional[Tuple[str, ...]]] = []
        for _ in range(rounds):
            round_ = list(menu)
            rng.shuffle(round_)
            mix.extend(round_)
        chatter = off_topic(rng, len(mix) * self.OFF_TOPIC_PER_DIGEST)
        ops: List[Op] = []
        for index, labels in enumerate(mix):
            batch = chatter[index * self.OFF_TOPIC_PER_DIGEST:
                            (index + 1) * self.OFF_TOPIC_PER_DIGEST]
            ops.append(Op(documents=tuple(batch)))
            ops.append(Op(request=DigestRequest(
                lam=LAM, labels=labels, algorithm=self.ALGORITHM,
            )))
        warmup = [DigestRequest(lam=LAM, labels=labels,
                                algorithm=self.ALGORITHM)
                  for labels in dict.fromkeys(menu)]
        return Inputs(posts=posts, preload=documents, warmup=warmup,
                      ops=ops, passes=min_passes,
                      block_ops=2 * len(menu) * self.BLOCK_ROUNDS)

    async def setup(self, inputs: Inputs) -> LocalCluster:
        cluster = LocalCluster(
            queries(), nodes=self.NODES,
            worker_config=default_worker_config(),
        )
        await cluster.start()
        try:
            outcome = await cluster.router.ingest(inputs.preload)
            if outcome["failed"]:
                raise RuntimeError(f"ingest failed on {outcome['failed']}")
            for request in inputs.warmup:
                response = await cluster.router.digest(request)
                if response.status != "ok":
                    raise RuntimeError(
                        f"warm-up digest failed: {response.reason}"
                    )
        except BaseException:
            await cluster.stop()
            raise
        return cluster

    async def teardown(self, cluster: LocalCluster) -> None:
        await cluster.stop()

    async def ingest(self, cluster, documents) -> None:
        outcome = await cluster.router.ingest(documents)
        if outcome["failed"]:
            raise RuntimeError(f"ingest failed on {outcome['failed']}")

    async def digest(self, cluster, request):
        response = await cluster.router.digest(request)
        path = "scatter" if len(response.shards) > 1 else "forward"
        return _outcome(response,
                        path + "+resolve" if response.resolves else path)

    def counts(self, cluster) -> Dict[str, int]:
        counts = _service_counts(
            worker.service for worker in cluster.workers.values()
        )
        counts["solves"] += cluster.router.resolves
        return counts


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (ColdSolve(), LiveViews(), ClusterScatter())
}
