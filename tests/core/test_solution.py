"""The Solution result type."""

import pytest

from repro.core.post import Post, make_posts
from repro.core.solution import Solution


def _solution(values, algorithm="test"):
    return Solution.from_posts(algorithm, make_posts(
        [(v, "a") for v in values]
    ))


class TestSolution:
    def test_posts_sorted_by_value(self):
        solution = _solution([3.0, 1.0, 2.0])
        assert [p.value for p in solution.posts] == [1.0, 2.0, 3.0]

    def test_from_posts_dedupes_by_uid(self):
        post = Post(uid=0, value=1.0, labels=frozenset("a"))
        solution = Solution.from_posts("test", [post, post])
        assert solution.size == 1

    def test_uids_in_value_order(self):
        solution = _solution([2.0, 1.0])
        assert solution.uids == (1, 0)

    def test_len_and_iter(self):
        solution = _solution([1.0, 2.0])
        assert len(solution) == 2
        assert [p.value for p in solution] == [1.0, 2.0]

    def test_relative_error(self):
        solution = _solution([1.0, 2.0, 3.0])
        assert solution.relative_error(2) == pytest.approx(0.5)

    def test_relative_error_zero_optimum_rejected(self):
        with pytest.raises(ValueError):
            _solution([1.0]).relative_error(0)

    def test_elapsed_not_part_of_equality(self):
        posts = tuple(make_posts([(1.0, "a")]))
        fast = Solution(algorithm="x", posts=posts, elapsed=0.1)
        slow = Solution(algorithm="x", posts=posts, elapsed=9.9)
        assert fast == slow

    def test_repr_is_a_summary(self):
        solution = _solution([float(v) for v in range(500)], "scan")
        assert repr(solution) == "Solution('scan', |Z|=500, elapsed=0)"
