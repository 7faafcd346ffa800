"""Topic queries and the label matcher."""

import pytest

from repro.index.inverted_index import Document, InvertedIndex
from repro.index.query import LabelMatcher, TopicQuery


def _topic(label, keywords):
    return TopicQuery(label=label, keywords=frozenset(keywords))


class TestTopicQuery:
    def test_matching_is_any_keyword(self):
        topic = _topic("golf", ["tiger", "masters"])
        assert topic.matches("tiger wins again")
        assert topic.matches("the masters this weekend")
        assert not topic.matches("nba finals tonight")

    def test_keywords_lowercased(self):
        topic = _topic("golf", ["TIGER"])
        assert topic.matches("tiger roars")

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError):
            _topic("empty", [])

    def test_top_keywords_by_weight(self):
        topic = TopicQuery(
            label="t",
            keywords=frozenset({"low", "high"}),
            weights=(("low", 0.1), ("high", 0.9)),
        )
        assert topic.top_keywords(1) == ["high"]

    def test_top_keywords_without_weights_sorted(self):
        topic = _topic("t", ["zeta", "alpha"])
        assert topic.top_keywords(2) == ["alpha", "zeta"]


class TestLabelMatcher:
    TOPICS = [
        _topic("golf", ["tiger", "masters"]),
        _topic("nba", ["lebron", "finals"]),
        _topic("potus", ["obama", "tiger"]),  # shares 'tiger' with golf
    ]

    def test_match_returns_all_matching_labels(self):
        matcher = LabelMatcher(self.TOPICS)
        assert matcher.match("tiger watch") == {"golf", "potus"}

    def test_match_empty_for_unrelated_text(self):
        matcher = LabelMatcher(self.TOPICS)
        assert matcher.match("weather is nice") == frozenset()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LabelMatcher([_topic("x", ["a"]), _topic("x", ["b"])])

    def test_labels_property(self):
        matcher = LabelMatcher(self.TOPICS)
        assert matcher.labels == {"golf", "nba", "potus"}

    def test_to_posts_drops_unmatched(self):
        matcher = LabelMatcher(self.TOPICS)
        documents = [
            Document(0, 1.0, "tiger at the masters"),
            Document(1, 2.0, "nothing relevant"),
        ]
        posts = matcher.to_posts(documents)
        assert len(posts) == 1
        assert posts[0].uid == 0
        assert posts[0].labels == {"golf", "potus"}
        assert posts[0].value == 1.0

    def test_to_posts_with_custom_value(self):
        matcher = LabelMatcher(self.TOPICS)
        documents = [Document(0, 1.0, "lebron dunks")]
        posts = matcher.to_posts_with_value(
            documents, value_of=lambda d: 0.75
        )
        assert posts[0].value == 0.75

    def test_equal_label_sets_share_one_frozenset(self):
        matcher = LabelMatcher(self.TOPICS)
        texts = ["tiger at the masters", "lebron dunks", "obama and tiger",
                 "nothing relevant", "finals tonight", "masters obama"]
        posts = matcher.to_posts_with_value(
            [Document(i, float(i), text) for i, text in enumerate(texts)],
            value_of=lambda d: d.timestamp,
        )
        assert [p.uid for p in posts] == [0, 1, 2, 4, 5]
        for post in posts:
            assert post.labels == matcher.match(post.text)
        tiger, nba = posts[0].labels, posts[1].labels
        assert [p.labels is tiger for p in posts] == \
            [True, False, True, False, True]
        assert posts[3].labels is nba

    def test_search_posts_via_index(self):
        index = InvertedIndex()
        index.add(0, 1.0, "tiger at the masters")
        index.add(1, 2.0, "lebron in the finals")
        index.add(2, 30.0, "obama press conference")
        matcher = LabelMatcher(self.TOPICS)
        posts = matcher.search_posts(index, start=0.0, end=10.0)
        assert sorted(p.uid for p in posts) == [0, 1]
