"""Output checks, run after the measured phase.

Every served cover goes through ``verify_cover`` against the instance it
was served from, rebuilt here from the workload's inputs (not from the
program's state); a cover served again for the same op of a repeated pass
is checked once.  On ``cold_solve`` and ``cluster_scatter`` a seeded
sample of covers is also compared pick for pick with
``DiversificationPipeline.digest`` over the same documents; view-served
covers (``live_views``) are verifier-valid, not pick-identical, by design.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Sequence, Tuple

from repro import DiversificationPipeline, Instance, InvalidCoverError, \
    Post, ServiceConfig, verify_cover

from workloads import LABELS, Inputs, RunRecord, queries

PICK_SAMPLE = 8
# the algorithm a request without one is served with
DEFAULT_ALGORITHM = ServiceConfig().algorithm


def _relabel(posts: Sequence[Post], labels: Tuple[str, ...]) -> List[Post]:
    """The posts a digest over ``labels`` sees, in (value, uid) order."""
    universe = frozenset(labels)
    selected = []
    for post in posts:
        inter = post.labels & universe
        if inter == post.labels:
            selected.append(post)
        elif inter:
            selected.append(Post(uid=post.uid, value=post.value,
                                 labels=inter, text=post.text))
    return selected


def _covers(instance: Instance, uids: Sequence[int]) -> bool:
    try:
        verify_cover(instance, [instance.post(uid) for uid in uids])
    except (KeyError, InvalidCoverError):
        # KeyError: a picked uid is not in the instance at all
        return False
    return True


class Verdicts:
    """Per-digest check outcomes plus the failures worth printing."""

    def __init__(self, count: int) -> None:
        self.passed = [False] * count
        self.failures: List[str] = []

    def record(self, index: int, ok: bool, message: str) -> None:
        self.passed[index] = ok
        if not ok and len(self.failures) < 10:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return self.passed.count(False)


def check_fixed_corpus(inputs: Inputs, record: RunRecord,
                       seed: int) -> Verdicts:
    """``cold_solve`` and ``cluster_scatter``: the matched corpus does
    not change during the run, so each digest's instance is the day's
    posts over its labels at its lambda."""
    verdicts = Verdicts(len(record.digests))
    relabeled: Dict[Tuple[str, ...], List[Post]] = {}
    memo: Dict[tuple, bool] = {}
    for index, digest in enumerate(record.digests):
        request = inputs.ops[digest.op].request
        labels = request.labels or LABELS
        key = (labels, request.lam, digest.uids)
        if key not in memo:
            if labels not in relabeled:
                relabeled[labels] = _relabel(inputs.posts, labels)
            memo[key] = _covers(
                Instance.from_sorted(relabeled[labels], request.lam,
                                     labels),
                digest.uids,
            )
        ok = digest.ok and memo[key]
        verdicts.record(index, ok, f"digest {index} ({digest.tag}, "
                        f"lam={request.lam}) is not a valid cover")
    rng = random.Random(seed)
    sample = rng.sample(range(len(record.digests)),
                        min(PICK_SAMPLE, len(record.digests)))
    by_label = {query.label: query for query in queries()}
    for index in sorted(sample):
        digest = record.digests[index]
        request = inputs.ops[digest.op].request
        labels = request.labels or LABELS
        documents = list(inputs.preload) + [
            document
            for op in inputs.ops[:digest.op] if op.request is None
            for document in op.documents
        ]
        reference = DiversificationPipeline(
            [by_label[label] for label in labels],
            lam=request.lam, dedup_distance=None,
            algorithm=request.algorithm or DEFAULT_ALGORITHM,
        ).digest(documents)
        expected = tuple(post.uid for post in reference.posts)
        if expected != digest.uids:
            verdicts.record(index, False, (
                f"digest {index} ({digest.tag}, lam={request.lam}) "
                f"differs from DiversificationPipeline.digest: "
                f"{len(digest.uids)} picks vs {len(expected)}"
            ))
    return verdicts


def check_windowed(inputs: Inputs, record: RunRecord) -> Verdicts:
    """``live_views``: each digest sees the posts ingested so far whose
    value is at least the newest value minus the view window."""
    verdicts = Verdicts(len(record.digests))
    window = inputs.params["window"]
    batch = inputs.params["batch"]
    preload = len(inputs.preload)
    # ingest is in time order, so after step s the store holds exactly
    # the first preload + (s + 1) * batch posts of the day
    posts = inputs.posts
    values = [post.value for post in posts]
    relabeled: Dict[Tuple[str, ...], Tuple[List[Post], List[float],
                                           List[int]]] = {}
    position = {post.uid: index for index, post in enumerate(posts)}

    def instance_at(op) -> Instance:
        labels = op.request.labels or LABELS
        if labels not in relabeled:
            subset = _relabel(posts, labels)
            relabeled[labels] = (
                subset,
                [post.value for post in subset],
                [position[post.uid] for post in subset],
            )
        subset, subset_values, subset_positions = relabeled[labels]
        held = preload + (op.step + 1) * batch
        newest = values[held - 1]
        lo = bisect.bisect_left(subset_values, newest - window)
        hi = bisect.bisect_left(subset_positions, held)
        return Instance.from_sorted(subset[lo:hi], op.request.lam, labels)

    # every pass replays the same ops, so a cover served again for the
    # same op is checked once
    memo: Dict[Tuple[int, Tuple[int, ...]], bool] = {}
    for index, digest in enumerate(record.digests):
        op = inputs.ops[digest.op]
        key = (digest.op, digest.uids)
        if key not in memo:
            memo[key] = _covers(instance_at(op), digest.uids)
        ok = digest.ok and memo[key]
        verdicts.record(index, ok, f"digest {index} ({digest.tag}, step "
                        f"{op.step}) is not a valid cover of its window")
    return verdicts


def check(workload_name: str, inputs: Inputs, record: RunRecord,
          seed: int) -> Verdicts:
    if workload_name == "live_views":
        return check_windowed(inputs, record)
    return check_fixed_corpus(inputs, record, seed)
