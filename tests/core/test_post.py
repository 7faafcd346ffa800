"""Unit tests for the Post data model."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core.post import Post, make_posts


class TestPost:
    def test_labels_normalised_to_frozenset(self):
        post = Post(uid=0, value=1.0, labels={"a", "b"})
        assert isinstance(post.labels, frozenset)
        assert post.labels == frozenset({"a", "b"})

    def test_time_aliases_value(self):
        post = Post(uid=0, value=42.5, labels=frozenset("a"))
        assert post.time == 42.5

    def test_matches(self):
        post = Post(uid=0, value=0.0, labels=frozenset("ab"))
        assert post.matches("a")
        assert post.matches("b")
        assert not post.matches("c")

    def test_distance_is_absolute(self):
        early = Post(uid=0, value=1.0, labels=frozenset("a"))
        late = Post(uid=1, value=4.0, labels=frozenset("a"))
        assert early.distance(late) == 3.0
        assert late.distance(early) == 3.0

    def test_covers_requires_shared_label(self):
        only_a = Post(uid=0, value=0.0, labels=frozenset("a"))
        only_b = Post(uid=1, value=0.0, labels=frozenset("b"))
        assert not only_a.covers("a", only_b, lam=10.0)
        assert not only_a.covers("b", only_b, lam=10.0)

    def test_covers_requires_distance_within_lambda(self):
        first = Post(uid=0, value=0.0, labels=frozenset("a"))
        second = Post(uid=1, value=5.0, labels=frozenset("a"))
        assert first.covers("a", second, lam=5.0)
        assert not first.covers("a", second, lam=4.999)

    def test_covers_is_reflexive_with_nonnegative_lambda(self):
        post = Post(uid=0, value=3.0, labels=frozenset("a"))
        assert post.covers("a", post, lam=0.0)

    def test_same_time_different_labels_do_not_cover(self):
        """The paper's key example: an 'Obama' post does not cover an
        'economy' post even at the same timestamp."""
        obama = Post(uid=0, value=100.0, labels=frozenset({"obama"}))
        economy = Post(uid=1, value=100.0, labels=frozenset({"economy"}))
        assert not obama.covers("economy", economy, lam=60.0)

    def test_text_not_part_of_equality(self):
        one = Post(uid=0, value=0.0, labels=frozenset("a"), text="x")
        two = Post(uid=0, value=0.0, labels=frozenset("a"), text="y")
        assert one == two


class TestImmutableSlottedPost:
    """A post behaves as the frozen dataclass it was, in slots."""

    @pytest.mark.parametrize("name", ["uid", "value", "labels", "text",
                                      "extra"])
    def test_assignment_raises(self, name):
        post = Post(0, 1.0, frozenset("a"), "x")
        with pytest.raises(FrozenInstanceError):
            setattr(post, name, 2)
        assert (post.uid, post.value, post.labels, post.text) == \
            (0, 1.0, frozenset("a"), "x")

    @pytest.mark.parametrize("name", ["uid", "value", "labels", "text"])
    def test_deletion_raises(self, name):
        post = Post(0, 1.0, frozenset("a"), "x")
        with pytest.raises(FrozenInstanceError):
            delattr(post, name)
        assert getattr(post, name) is not None

    def test_equality_and_hash_ignore_text(self):
        one = Post(3, 2.5, frozenset("ab"), text="one")
        two = Post(3, 2.5, frozenset("ab"), text="two")
        assert one == two and not one != two
        assert hash(one) == hash(two) == hash((3, 2.5, frozenset("ab")))
        assert len({one, two}) == 1

    @pytest.mark.parametrize("other", [
        Post(4, 2.5, frozenset("ab")),
        Post(3, 2.0, frozenset("ab")),
        Post(3, 2.5, frozenset("a")),
    ])
    def test_equality_reads_uid_value_and_labels(self, other):
        assert Post(3, 2.5, frozenset("ab")) != other

    def test_not_equal_to_other_types(self):
        post = Post(0, 1.0, frozenset("a"))
        assert post != (0, 1.0, frozenset("a"))
        assert post.__eq__((0, 1.0, frozenset("a"))) is NotImplemented

    @pytest.mark.parametrize("labels", [
        ["a", "b"], {"a", "b"}, ("b", "a"), "ab",
        (label for label in "ab"), {"a": 1, "b": 2}.keys(),
    ], ids=["list", "set", "tuple", "str", "generator", "keys"])
    def test_labels_from_any_iterable_become_a_frozenset(self, labels):
        post = Post(0, 1.0, labels)
        assert type(post.labels) is frozenset
        assert post.labels == frozenset("ab")

    def test_a_frozenset_is_kept_as_is(self):
        labels = frozenset("ab")
        assert Post(0, 1.0, labels).labels is labels

    def test_positional_keyword_and_default_text_construction(self):
        labels = frozenset("a")
        positional = Post(1, 2.0, labels, "t")
        keyword = Post(text="t", labels=labels, value=2.0, uid=1)
        default = Post(1, 2.0, labels)
        assert (positional.uid, positional.value, positional.labels,
                positional.text) == (1, 2.0, labels, "t")
        assert positional == keyword == default
        assert keyword.text == "t"
        assert default.text == ""
        with pytest.raises(TypeError):
            Post(1, 2.0)  # labels are required
        with pytest.raises(TypeError):
            Post(1, 2.0, labels, "t", "extra")

    def test_has_no_instance_dict(self):
        post = Post(0, 1.0, frozenset("a"))
        assert not hasattr(post, "__dict__")
        assert Post.__slots__ == ("uid", "value", "labels", "text")

    @pytest.mark.parametrize("round_trip", [
        lambda post: pickle.loads(pickle.dumps(post)),
        lambda post: pickle.loads(pickle.dumps(post, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    def test_round_trips(self, round_trip):
        post = Post(7, -0.5, frozenset({"news", "sports"}), "hello")
        again = round_trip(post)
        assert type(again) is Post
        assert again == post
        assert (again.uid, again.value, again.labels, again.text) == \
            (7, -0.5, frozenset({"news", "sports"}), "hello")
        assert type(again.labels) is frozenset
        with pytest.raises(FrozenInstanceError):
            again.uid = 8


class TestMakePosts:
    def test_string_labels_split_characterwise(self):
        posts = make_posts([(1.0, "ab")])
        assert posts[0].labels == frozenset({"a", "b"})

    def test_iterable_labels_accepted(self):
        posts = make_posts([(1.0, ["news", "sports"])])
        assert posts[0].labels == frozenset({"news", "sports"})

    def test_sequential_uids_from_start(self):
        posts = make_posts([(1.0, "a"), (2.0, "a")], start_uid=7)
        assert [p.uid for p in posts] == [7, 8]

    def test_optional_text_member(self):
        posts = make_posts([(1.0, "a", "hello world")])
        assert posts[0].text == "hello world"

    def test_values_coerced_to_float(self):
        posts = make_posts([(3, "a")])
        assert isinstance(posts[0].value, float)
