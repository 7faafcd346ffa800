"""Round-trip property tests for the wire format (satellite 1).

Every serializable type must satisfy ``from_dict(json.loads(json.dumps(
x.to_dict()))) == x`` — i.e. survive a real JSON hop, not just a dict
copy.  ``Instance`` has identity equality by design, so its round trip is
checked field-wise.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance, InstanceColumns
from repro.core.post import Post
from repro.core.solution import Solution
from repro.errors import InvalidInstanceError, ReproError
from repro.pipeline import DigestResult
from repro.resilience.ladder import DowngradeEvent
from repro.service import DigestRequest, ServiceResponse
from repro.stream.events import Emission

from ..conftest import boundary_instances, pack, unpack

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
    payload = instance.to_dict()
    assert payload == {
        "lam": 4.0,
        "labels": ["a", "b", "c"],
        "uids": [3, 5, 7],
        "values": "AAAAAAAA8D8AAAAAAAAAQAAAAAAAAABA",
        "masks": [0b010, 0b111, 0b101],
        "texts": ["one", "", "two"],
    }
    assert unpack(payload["values"]) == [1.0, 2.0, 2.0]


# -- hostile columnar payloads ---------------------------------------------

ROW_COLUMNS = ("uids", "values", "masks", "texts")
CORRUPTIONS = (
    "missing_column", "unequal_lengths", "duplicate_uid", "swapped_rows",
    "nan_value", "zero_mask", "mask_too_wide", "repeated_label",
    "values_not_a_string", "values_not_base64", "values_byte_short",
    "values_byte_long", "one_value_short", "lam_not_a_number",
    "mask_not_an_int",
)
# the error a corruption must raise, where exactly one check can catch it
REASONS = {
    "unequal_lengths": "differ in length",
    "swapped_rows": "strictly increasing",
    "nan_value": "NaN",
    "values_not_a_string": "base64 string",
    "values_not_base64": "not base64",
    "values_byte_short": "float64s",
    "values_byte_long": "float64s",
    "one_value_short": "differ in length",
    "lam_not_a_number": "lambda must be a number",
    "zero_mask": "mask",
    "mask_too_wide": "mask",
    "mask_not_an_int": "mask",
}


def edit_values(payload, edit):
    """Unpack the values column, ``edit`` the list in place, repack."""
    values = unpack(payload["values"])
    edit(values)
    payload["values"] = pack(values)


def corrupt_instance(payload, how, data):
    """Apply one named corruption to an encoded instance, in place."""
    rows = len(payload["uids"])
    row = data.draw(st.integers(min_value=0, max_value=rows - 1))
    if how == "missing_column":
        del payload[data.draw(st.sampled_from(sorted(payload)))]
    elif how == "unequal_lengths":
        name = data.draw(st.sampled_from(ROW_COLUMNS))
        if name == "values":
            edit_values(payload, list.pop)
        else:
            payload[name].pop()
    elif how == "duplicate_uid":
        other = data.draw(st.integers(min_value=0, max_value=rows - 1)
                          .filter(lambda index: index != row))
        payload["uids"][other] = payload["uids"][row]
    elif how == "swapped_rows":
        row = min(row, rows - 2)

        def swap(column):
            column[row], column[row + 1] = column[row + 1], column[row]

        for name in ROW_COLUMNS:
            if name == "values":
                edit_values(payload, swap)
            else:
                swap(payload[name])
    elif how == "nan_value":
        edit_values(payload,
                    lambda values: values.__setitem__(row, float("nan")))
    elif how == "zero_mask":
        payload["masks"][row] = 0
    elif how == "mask_too_wide":
        payload["masks"][row] = 1 << len(payload["labels"])
    elif how == "repeated_label":
        payload["labels"].append(
            data.draw(st.sampled_from(payload["labels"]))
        )
    elif how == "values_not_a_string":
        payload["values"] = data.draw(st.sampled_from(
            [unpack(payload["values"]), None, 0]
        ))
    elif how == "values_not_base64":
        packed = payload["values"]
        at = data.draw(st.integers(min_value=0, max_value=len(packed) - 1))
        bad = data.draw(st.sampled_from("!*-_ \n\u00e9"))
        payload["values"] = packed[:at] + bad + packed[at + 1:]
    elif how in ("values_byte_short", "values_byte_long"):
        raw = base64.b64decode(payload["values"])
        raw = raw[:-1] if how == "values_byte_short" else raw + b"\0"
        payload["values"] = base64.b64encode(raw).decode("ascii")
    elif how == "one_value_short":
        payload["values"] = pack(unpack(payload["values"])[1:])
    elif how == "mask_not_an_int":
        # a bool or float equal to a mask an earlier row holds hashes
        # alike, so only a type check on every row catches it
        mask = payload["masks"][row]
        payload["masks"][row] = data.draw(st.sampled_from(
            [float(mask), str(mask)] + ([True] if mask == 1 else [])
        ))
    elif how == "lam_not_a_number":
        lam = payload["lam"]
        payload["lam"] = data.draw(st.sampled_from(
            [repr(lam), f" {lam} ", f"{lam:e}", True, False, None, [lam]]
        ))


@settings(max_examples=300)
@given(instances(), st.sampled_from(CORRUPTIONS), st.data())
def test_every_single_corruption_is_rejected(instance, how, data):
    if how in ("duplicate_uid", "swapped_rows"):
        assume(len(instance.posts) >= 2)
    payload = hop(instance.to_dict())
    corrupt_instance(payload, how, data)
    with pytest.raises(InvalidInstanceError, match=REASONS.get(how)):
        Instance.from_dict(hop(payload))


def test_a_lone_nan_row_is_rejected():
    # one row has no neighbour whose order check would catch the NaN
    payload = Instance([Post(1, 1.0, frozenset("a"))], lam=1.0).to_dict()
    edit_values(payload,
                lambda values: values.__setitem__(0, float("nan")))
    with pytest.raises(InvalidInstanceError, match="NaN"):
        Instance.from_dict(hop(payload))


@pytest.mark.parametrize("size", [7, 9])
def test_values_of_a_partial_float64_are_rejected(size):
    payload = Instance([Post(1, 1.0, frozenset("a"))], lam=1.0).to_dict()
    raw = (base64.b64decode(payload["values"]) + b"\0")[:size]
    payload["values"] = base64.b64encode(raw).decode("ascii")
    with pytest.raises(InvalidInstanceError, match="float64s"):
        Instance.from_dict(hop(payload))


@pytest.mark.parametrize("lam", ["300", " 7 ", "1e3", True, None])
def test_a_lambda_that_is_not_a_number_is_rejected(lam):
    payload = Instance([Post(1, 1.0, frozenset("a"))], lam=1.0).to_dict()
    payload["lam"] = lam
    with pytest.raises(InvalidInstanceError, match="lambda must be a number"):
        Instance.from_dict(hop(payload))


EDGE_VALUES = (
    -math.inf, -sys.float_info.max, -1.0, -5e-324, -0.0, 0.0, 5e-324,
    math.ulp(0.0) * 3, sys.float_info.min / 2, sys.float_info.min, 1.0,
    sys.float_info.max, math.inf,
)


def bits(values):
    return [struct.pack("<d", value) for value in values]


def test_edge_values_round_trip_bit_exact():
    # -0.0 and 0.0 tie on value, so their uids decide their order
    instance = Instance(
        [Post(uid, value, frozenset("a"))
         for uid, value in enumerate(EDGE_VALUES)],
        lam=0.0,
    )
    back = Instance.from_dict(hop(instance.to_dict()))
    assert bits(post.value for post in back.posts) == bits(EDGE_VALUES)
    assert bits(unpack(instance.to_dict()["values"])) == bits(EDGE_VALUES)


@settings(max_examples=100)
@given(boundary_instances())
def test_boundary_instances_round_trip_bit_exact(instance):
    back = Instance.from_dict(hop(instance.to_dict()))
    assert bits(post.value for post in back.posts) == \
        bits(post.value for post in instance.posts)
    assert back.posts == instance.posts
    assert back.labels == instance.labels
    assert back.lam == instance.lam


def test_editing_an_encoded_instance_leaves_the_next_encoding_alone():
    instance = Instance([
        Post(7, 2.0, frozenset("ca"), text="two"),
        Post(3, 1.0, frozenset("b"), text="one"),
    ], lam=4.0)
    first = instance.to_dict()
    expected = hop(first)
    for name in ("labels", "uids", "masks", "texts"):
        first[name].append(first[name][0])
        first[name].reverse()
    first["values"] = ""
    first["lam"] = -1.0
    assert instance.to_dict() == expected
    assert instance.to_dict() is not instance.to_dict()


def test_columns_build_their_instance_once_across_threads():
    instance = Instance.from_specs(
        [(float(i), "ab") for i in range(400)], lam=1.0
    )
    payload = hop(instance.to_dict())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            columns = InstanceColumns.decode(payload)
            (cover,) = columns.posts_at([7])
            barrier = threading.Barrier(8)
            built = []

            def read():
                barrier.wait()
                built.append(columns.instance)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(built) == 8
            assert len({id(instance) for instance in built}) == 1
            assert built[0].posts == instance.posts
            assert built[0].posts[7] is cover
            assert columns.posts_at([7, 9]) == (cover, built[0].posts[9])
    finally:
        sys.setswitchinterval(interval)


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


def test_encoder_checks_a_result_cover_once(monkeypatch):
    # a result is frozen: a worker re-shipping its cached result does
    # not re-check the cover post by post
    result = _two_post_digest([
        Post(1, 1.0, frozenset("a")), Post(2, 2.0, frozenset("ab")),
    ])
    lookups = []
    post = Instance.post

    def counted(self, uid):
        lookups.append(uid)
        return post(self, uid)

    monkeypatch.setattr(Instance, "post", counted)
    first, second = result.to_dict(), result.to_dict()
    assert lookups == [1, 2]
    assert first == second
    # each payload carries its own uid list
    first["solution"]["uids"].append(99)
    assert second["solution"]["uids"] == [1, 2]


def test_encoder_rejects_a_bad_cover_on_every_call():
    result = _two_post_digest([Post(2, 2.5, frozenset("ab"))])
    for _ in range(2):
        with pytest.raises(ReproError):
            result.to_dict()


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
