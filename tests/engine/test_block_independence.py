"""Block independence of the serial solvers.

``docs/performance.md`` argues that an instance decomposes exactly at
every value gap wider than lambda, and at label blocks no post spans.
These tests check it against the serial solvers: solving the blocks
independently and taking the union gives the whole instance's cover.
Where a post spans label blocks, the union is still a cover, but not
always the one-process answer, which is why the cluster router
re-solves every merge of two or more legs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given

from repro.core.coverage import uncovered_pairs
from repro.core.greedy_sc import build_setcover_family, greedy_sc
from repro.core.instance import Instance
from repro.core.post import Post
from repro.core.scan import (
    _scan_plus_posts,
    _scan_posts,
    order_labels,
    scan,
    scan_plus,
)
from repro.setcover import greedy_set_cover

from .conftest import engine_instances, label_block_instances


# -- block independence -----------------------------------------------------

# (algorithm, knob): the label order for Scan/Scan+, the set-cover
# strategy for GreedySC.
CASES = [
    ("scan", "sorted"),
    ("scan", "longest_first"),
    ("scan", "shortest_first"),
    ("scan+", "sorted"),
    ("scan+", "longest_first"),
    ("scan+", "shortest_first"),
    ("greedy_sc", "rescan"),
    ("greedy_sc", "lazy_heap"),
]
CASE_IDS = [f"{algorithm}-{knob}" for algorithm, knob in CASES]
# one case per solver and set-cover strategy, for the fixed instances
SOLVER_CASES = [c for c in CASES if c[1] != "longest_first"
                and c[1] != "shortest_first"]
SOLVER_IDS = [f"{algorithm}-{knob}" for algorithm, knob in SOLVER_CASES]


def solve_uids(instance, algorithm, knob):
    """The public solver's picks, as a uid set."""
    if algorithm == "scan":
        return set(scan(instance, knob).uids)
    if algorithm == "scan+":
        return set(scan_plus(instance, knob).uids)
    return set(greedy_sc(instance, strategy=knob).uids)


def block_uids(block, whole, algorithm, knob):
    """Solve one value block as a block-local worker would: Scan and
    Scan+ keep the label order resolved on the *whole* instance (a
    block's own posting-list lengths may order its labels differently)."""
    if algorithm == "greedy_sc":
        return set(greedy_sc(block, strategy=knob).uids)
    order = [a for a in order_labels(whole, knob) if a in block.labels]
    run = _scan_posts if algorithm == "scan" else _scan_plus_posts
    return {p.uid for p in run(block, order)}


def gap_blocks(instance):
    """Split ``instance`` at every value gap strictly wider than lambda."""
    blocks, current = [], []
    for post in instance.posts:
        if current and post.value - current[-1].value > instance.lam:
            blocks.append(Instance(current, instance.lam))
            current = []
        current.append(post)
    if current:
        blocks.append(Instance(current, instance.lam))
    return blocks


def label_blocks(instance, blocks=("abc", "def")):
    """The sub-instances of posts whose labels fall inside each block."""
    out = []
    for block in blocks:
        posts = [p for p in instance.posts if p.labels <= set(block)]
        if posts:
            out.append(Instance(posts, instance.lam))
    return out


def greedy_pick_sequence(instance, strategy):
    """GreedySC's picks in pick order (a :class:`Solution` sorts them)."""
    family, universe = build_setcover_family(instance)
    chosen = greedy_set_cover(family, universe=universe, strategy=strategy)
    return [instance.posts[k].uid for k in chosen]


class TestGapBlocks:
    @pytest.mark.parametrize("algorithm, knob", CASES, ids=CASE_IDS)
    @given(engine_instances(force_gaps=True))
    def test_union_of_gap_blocks_is_the_whole_solve(
        self, algorithm, knob, inst
    ):
        union = set()
        for block in gap_blocks(inst):
            union |= block_uids(block, inst, algorithm, knob)
        assert union == solve_uids(inst, algorithm, knob)

    @pytest.mark.parametrize("strategy", ["rescan", "lazy_heap"])
    @given(engine_instances(force_gaps=True, max_posts=40))
    def test_greedy_sequence_restricted_to_a_block_is_its_own(
        self, strategy, inst
    ):
        # the stronger claim: the global pick order, restricted to one
        # block, is that block's own greedy pick order
        whole = greedy_pick_sequence(inst, strategy)
        for block in gap_blocks(inst):
            members = {p.uid for p in block.posts}
            assert [u for u in whole if u in members] == \
                greedy_pick_sequence(block, strategy)

    @pytest.mark.parametrize("algorithm, knob", SOLVER_CASES,
                             ids=SOLVER_IDS)
    def test_exact_lambda_gap_couples_the_sides(self, algorithm, knob):
        # coverage is `<=`: one post covers both sides of a gap of
        # exactly lambda, so splitting there would cost a second pick
        inst = Instance.from_specs([(0.0, "a"), (1.0, "a")], lam=1.0)
        assert len(gap_blocks(inst)) == 1
        halves = [inst.restricted_to(0.0, 0.0),
                  inst.restricted_to(1.0, 1.0)]
        union = set()
        for half in halves:
            union |= block_uids(half, inst, algorithm, knob)
        assert len(solve_uids(inst, algorithm, knob)) == 1
        assert len(union) == 2

    @pytest.mark.parametrize("algorithm, knob", SOLVER_CASES,
                             ids=SOLVER_IDS)
    def test_gap_one_ulp_over_lambda_decouples(self, algorithm, knob):
        far = math.nextafter(1.0, 2.0)
        inst = Instance.from_specs([(0.0, "ab"), (far, "ab")], lam=1.0)
        blocks = gap_blocks(inst)
        assert len(blocks) == 2
        union = set()
        for block in blocks:
            union |= block_uids(block, inst, algorithm, knob)
        assert union == solve_uids(inst, algorithm, knob) == {0, 1}


    def test_scan_plus_blocks_keep_the_whole_label_order(self):
        # the first block alone has one "a" post and two "b" posts, so
        # its own longest-first order runs "b" first, picks post 1 and
        # still owes "a" a pick; the whole instance runs "a" first and
        # its pick of post 0 strikes both "b" posts
        inst = Instance.from_specs(
            [(0.5, "ab"), (1.5, "b"), (4.0, "a")], lam=1.0
        )
        blocks = gap_blocks(inst)
        assert len(blocks) == 2
        kept = set().union(*(block_uids(b, inst, "scan+", "longest_first")
                             for b in blocks))
        own = set().union(*(solve_uids(b, "scan+", "longest_first")
                            for b in blocks))
        assert solve_uids(inst, "scan+", "longest_first") == kept == {0, 2}
        assert own == {0, 1, 2}


class TestLabelBlocks:
    @pytest.mark.parametrize("algorithm, knob", CASES, ids=CASE_IDS)
    @given(label_block_instances())
    def test_union_of_label_blocks_is_the_whole_solve(
        self, algorithm, knob, inst
    ):
        # each block runs the public solver on its own labels, as a
        # cluster shard does; no value gap helps here
        union = set()
        for block in label_blocks(inst):
            union |= solve_uids(block, algorithm, knob)
        assert union == solve_uids(inst, algorithm, knob)

    @given(label_block_instances())
    def test_merged_label_blocks_need_no_repair(self, inst):
        picks = [p for block in label_blocks(inst)
                 for p in scan_plus(block).posts]
        assert uncovered_pairs(inst, picks) == []

    @pytest.mark.parametrize("algorithm, knob", SOLVER_CASES,
                             ids=SOLVER_IDS)
    @given(engine_instances(max_labels=6))
    def test_union_of_coupled_label_blocks_is_still_a_cover(
        self, algorithm, knob, inst
    ):
        # a post may carry labels of both blocks: each block sees it
        # with its own labels only, as a scatter leg does; the blocks'
        # picks together leave no pair uncovered, so a seam breaks
        # pick-identity with the whole solve, never coverage
        picks = set()
        for block in ("abc", "def"):
            posts = [
                Post(p.uid, p.value, p.labels & set(block))
                for p in inst.posts if p.labels & set(block)
            ]
            if posts:
                picks |= solve_uids(
                    Instance(posts, inst.lam), algorithm, knob
                )
        assert uncovered_pairs(
            inst, [inst.post(uid) for uid in sorted(picks)]
        ) == []
