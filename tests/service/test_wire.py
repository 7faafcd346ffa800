"""Round-trip property tests for the wire format (satellite 1).

Every serializable type must satisfy ``from_dict(json.loads(json.dumps(
x.to_dict()))) == x`` — i.e. survive a real JSON hop, not just a dict
copy.  ``Instance`` has identity equality by design, so its round trip is
checked field-wise.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.post import Post
from repro.core.solution import Solution
from repro.errors import InvalidInstanceError, ReproError
from repro.pipeline import DigestResult
from repro.resilience.ladder import DowngradeEvent
from repro.service import DigestRequest, ServiceResponse
from repro.stream.events import Emission

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
labels_st = st.frozensets(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=4
)
texts = st.text(max_size=40)

posts_st = st.builds(
    Post,
    uid=st.integers(min_value=0, max_value=10**6),
    value=finite,
    labels=labels_st,
    text=texts,
)


def hop(payload):
    """Force the payload through an actual JSON encode/decode."""
    return json.loads(json.dumps(payload))


@st.composite
def instances(draw):
    posts = draw(
        st.lists(posts_st, min_size=1, max_size=8, unique_by=lambda p: p.uid)
    )
    lam = draw(st.floats(min_value=0.0, max_value=1e6, width=32))
    universe = frozenset().union(*(p.labels for p in posts))
    return Instance(posts, lam, labels=universe)


@st.composite
def solutions(draw):
    instance = draw(instances())
    size = draw(st.integers(min_value=0, max_value=len(instance.posts)))
    return Solution(
        algorithm=draw(st.sampled_from(["opt", "greedy_sc", "scan+"])),
        posts=tuple(instance.posts[:size]),
        elapsed=draw(st.floats(min_value=0.0, max_value=10.0, width=32)),
    )


downgrades_st = st.builds(
    DowngradeEvent,
    from_algorithm=st.sampled_from(["opt", "greedy_sc"]),
    to_algorithm=st.sampled_from(["scan+", "scan"]),
    trigger=st.sampled_from(["budget", "error"]),
    elapsed=st.floats(min_value=0.0, max_value=5.0, width=32),
    at=st.one_of(st.none(), finite),
)


@given(posts_st)
def test_post_round_trips(post):
    assert Post.from_dict(hop(post.to_dict())) == post


@given(posts_st)
def test_post_labels_serialize_sorted(post):
    assert post.to_dict()["labels"] == sorted(post.labels)


@settings(max_examples=50)
@given(instances())
def test_instance_round_trips_fieldwise(instance):
    back = Instance.from_dict(hop(instance.to_dict()))
    assert back.posts == instance.posts
    assert back.lam == instance.lam
    assert back.labels == instance.labels


def test_instance_encodes_as_columns_over_the_sorted_universe():
    instance = Instance([
        Post(7, 2.0, frozenset("ca"), text="two"),
        Post(3, 1.0, frozenset("b"), text="one"),
        Post(5, 2.0, frozenset("abc")),
    ], lam=4.0)
    assert instance.to_dict() == {
        "lam": 4.0,
        "labels": ["a", "b", "c"],
        "uids": [3, 5, 7],
        "values": [1.0, 2.0, 2.0],
        "masks": [0b010, 0b111, 0b101],
        "texts": ["one", "", "two"],
    }


# -- hostile columnar payloads ---------------------------------------------

ROW_COLUMNS = ("uids", "values", "masks", "texts")
CORRUPTIONS = (
    "missing_column", "unequal_lengths", "duplicate_uid", "swapped_rows",
    "nan_value", "zero_mask", "mask_too_wide", "repeated_label",
)


def corrupt_instance(payload, how, data):
    """Apply one named corruption to an encoded instance, in place."""
    rows = len(payload["uids"])
    row = data.draw(st.integers(min_value=0, max_value=rows - 1))
    if how == "missing_column":
        del payload[data.draw(st.sampled_from(sorted(payload)))]
    elif how == "unequal_lengths":
        payload[data.draw(st.sampled_from(ROW_COLUMNS))].pop()
    elif how == "duplicate_uid":
        other = data.draw(st.integers(min_value=0, max_value=rows - 1)
                          .filter(lambda index: index != row))
        payload["uids"][other] = payload["uids"][row]
    elif how == "swapped_rows":
        row = min(row, rows - 2)
        for name in ROW_COLUMNS:
            column = payload[name]
            column[row], column[row + 1] = column[row + 1], column[row]
    elif how == "nan_value":
        payload["values"][row] = float("nan")
    elif how == "zero_mask":
        payload["masks"][row] = 0
    elif how == "mask_too_wide":
        payload["masks"][row] = 1 << len(payload["labels"])
    elif how == "repeated_label":
        payload["labels"].append(
            data.draw(st.sampled_from(payload["labels"]))
        )


@settings(max_examples=200)
@given(instances(), st.sampled_from(CORRUPTIONS), st.data())
def test_every_single_corruption_is_rejected(instance, how, data):
    if how in ("duplicate_uid", "swapped_rows"):
        assume(len(instance.posts) >= 2)
    payload = hop(instance.to_dict())
    corrupt_instance(payload, how, data)
    with pytest.raises(InvalidInstanceError):
        Instance.from_dict(hop(payload))


def test_a_lone_nan_row_is_rejected():
    # one row has no neighbour whose order check would catch the NaN
    payload = Instance([Post(1, 1.0, frozenset("a"))], lam=1.0).to_dict()
    payload["values"][0] = float("nan")
    with pytest.raises(InvalidInstanceError):
        Instance.from_dict(hop(payload))


@settings(max_examples=50)
@given(instances(), st.data())
def test_decoded_cover_posts_are_the_instance_posts(instance, data):
    picked = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(instance.posts) - 1)
    ))
    cover = tuple(instance.posts[index] for index in sorted(picked))
    result = DigestResult(
        solution=Solution("scan+", cover), instance=instance,
        matched=len(instance.posts), duplicates_dropped=0,
        unmatched_dropped=0,
    )
    payload = hop(result.to_dict())
    back = DigestResult.from_dict(payload)
    assert back.solution.posts == cover
    for post in back.solution.posts:
        assert post is back.instance.post(post.uid)
    # one label-set object per distinct mask
    label_sets = {id(post.labels) for post in back.instance.posts}
    assert len(label_sets) == len(set(payload["instance"]["masks"]))


def _two_post_digest(cover):
    instance = Instance([
        Post(1, 1.0, frozenset("a")), Post(2, 2.0, frozenset("ab")),
    ], lam=1.0)
    return DigestResult(
        solution=Solution("scan+", tuple(cover)), instance=instance,
        matched=2, duplicates_dropped=0, unmatched_dropped=0,
    )


def test_decoder_rejects_a_cover_uid_outside_the_instance():
    payload = hop(_two_post_digest([]).to_dict())
    payload["solution"]["uids"] = [2, 99]
    with pytest.raises(ReproError, match="99"):
        DigestResult.from_dict(payload)


def test_decoder_rejects_a_cover_out_of_order():
    payload = hop(_two_post_digest([]).to_dict())
    payload["solution"]["uids"] = [2, 1]
    with pytest.raises(ReproError):
        DigestResult.from_dict(payload)


@pytest.mark.parametrize("stale", [
    Post(2, 2.0, frozenset("a")),  # the instance post's labels are ab
    Post(2, 2.5, frozenset("ab")),
    Post(9, 2.0, frozenset("ab")),  # no such uid in the instance
], ids=["labels", "value", "uid"])
def test_encoder_rejects_a_cover_post_unlike_its_instance_post(stale):
    with pytest.raises(ReproError):
        _two_post_digest([stale]).to_dict()


@given(posts_st, st.floats(min_value=0.0, max_value=1e6, width=32))
def test_emission_round_trips(post, delay):
    emission = Emission(post=post, emitted_at=post.value + delay)
    back = Emission.from_dict(hop(emission.to_dict()))
    assert back == emission
    assert back.delay == emission.delay


@given(downgrades_st)
def test_downgrade_event_round_trips(event):
    assert DowngradeEvent.from_dict(hop(event.to_dict())) == event


@settings(max_examples=30)
@given(
    solutions(),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.lists(downgrades_st, max_size=3),
)
def test_digest_result_round_trips(solution, duplicates, unmatched, events):
    instance = Instance(
        solution.posts or [Post(0, 0.0, frozenset("a"))],
        lam=1.0,
    )
    result = DigestResult(
        solution=solution,
        instance=instance,
        matched=len(instance.posts),
        duplicates_dropped=duplicates,
        unmatched_dropped=unmatched,
        downgrades=tuple(events),
    )
    back = DigestResult.from_dict(hop(result.to_dict()))
    assert back.solution == result.solution
    assert back.instance.posts == result.instance.posts
    assert back.instance.lam == result.instance.lam
    assert back.instance.labels == result.instance.labels
    assert back.matched == result.matched
    assert back.duplicates_dropped == result.duplicates_dropped
    assert back.unmatched_dropped == result.unmatched_dropped
    assert back.downgrades == result.downgrades


def test_service_response_is_json_safe():
    posts = (Post(1, 5.0, frozenset({"a"}), text="hello"),)
    instance = Instance(posts, lam=2.0)
    result = DigestResult(
        solution=Solution("greedy_sc", posts),
        instance=instance,
        matched=1,
        duplicates_dropped=0,
        unmatched_dropped=2,
    )
    response = ServiceResponse(
        status="ok", result=result, algorithm="greedy_sc",
        cached=True, latency_s=0.01, epoch=3,
    )
    payload = hop(response.to_dict())
    assert payload["status"] == "ok"
    assert payload["cached"] is True
    assert payload["epoch"] == 3
    restored = DigestResult.from_dict(payload["result"])
    assert restored.solution == result.solution


def test_shed_response_serializes_without_result():
    response = ServiceResponse(
        status="shed", result=None, algorithm="greedy_sc",
        reason="token bucket empty",
    )
    payload = hop(response.to_dict())
    assert payload["result"] is None
    assert payload["reason"] == "token bucket empty"


def test_digest_request_normalises_labels():
    request = DigestRequest(lam=5.0, labels=("b", "a", "b"))
    assert request.labels == ("a", "b")
