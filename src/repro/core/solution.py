"""The common result type returned by every MQDP solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, List, Optional, Tuple

from ..observability import facade as _obs
from .instance import Instance
from .post import Post

__all__ = ["Solution", "timed_solution"]

# an instance's post order
_ROW_KEY = attrgetter("value", "uid")


@dataclass(frozen=True)
class Solution:
    """A (candidate) lambda-cover produced by a solver.

    Attributes
    ----------
    algorithm:
        Name of the producing algorithm (``"opt"``, ``"scan"``, ...).
    posts:
        The selected posts, sorted by diversity value.
    elapsed:
        Wall-clock seconds spent inside the solver, for the efficiency
        studies (Figures 13-15); ``0.0`` when not measured.
    """

    algorithm: str
    posts: Tuple[Post, ...]
    elapsed: float = field(default=0.0, compare=False)

    @property
    def size(self) -> int:
        """Solution cardinality ``|Z|`` — the objective the paper minimises."""
        return len(self.posts)

    @property
    def uids(self) -> Tuple[int, ...]:
        """The selected posts' uids, in value order."""
        return tuple(post.uid for post in self.posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self.posts)

    def __len__(self) -> int:
        return len(self.posts)

    def __repr__(self) -> str:
        # a summary, like Instance's: a cover can hold hundreds of posts,
        # and asyncio.run reprs a finished main task's result (twice, as
        # it restores the SIGINT handler), so a repr listing every post
        # made most of the cost of reading a served digest that way
        return (
            f"Solution({self.algorithm!r}, |Z|={len(self.posts)}, "
            f"elapsed={self.elapsed:.3g})"
        )

    def relative_error(self, optimum: int) -> float:
        """``(|Z| - |OPT|) / |OPT|`` — the paper's relative solution size error."""
        if optimum <= 0:
            raise ValueError("optimum size must be positive")
        return (self.size - optimum) / optimum

    @staticmethod
    def from_posts(algorithm: str, posts: List[Post],
                   elapsed: float = 0.0) -> "Solution":
        """Normalise an unordered post list into a :class:`Solution`."""
        unique = {post.uid: post for post in posts}
        ordered = sorted(unique.values(), key=_ROW_KEY)
        return Solution(algorithm=algorithm, posts=tuple(ordered),
                        elapsed=elapsed)


def timed_solution(algorithm: str, solve, instance: Instance,
                   *args, clock: Optional[Callable[[], float]] = None,
                   **kwargs) -> Solution:
    """Run ``solve(instance, *args, **kwargs)`` and wrap the timing.

    ``solve`` must return a list of posts; the wall-clock time is recorded
    on the resulting :class:`Solution`.  The time source is, in order:
    the ``clock`` argument, the active observability clock
    (:func:`repro.observability.clock`), else ``time.perf_counter`` — so
    enabling observability with a fake clock makes every solver's
    recorded ``elapsed`` deterministic.
    """
    tick = clock if clock is not None else _obs.clock()
    with _obs.span(f"solver.{algorithm}", algorithm=algorithm) as span:
        start = tick()
        posts = solve(instance, *args, **kwargs)
        elapsed = tick() - start
        solution = Solution.from_posts(algorithm, posts, elapsed=elapsed)
        span.set_attribute("solution_size", solution.size)
        span.set_attribute("elapsed", elapsed)
    if _obs.enabled():
        _obs.count(f"solver.{algorithm}.calls")
        _obs.observe(f"solver.{algorithm}.elapsed", elapsed)
        _obs.set_gauge(f"solver.{algorithm}.last_solution_size",
                       solution.size)
    return solution
