"""Algorithm OPT: the exact end-pattern dynamic program (Section 4.1).

The DP sweeps the posts in time order.  After processing post ``P_j`` it
keeps, for every feasible *j-end-pattern* ``xi`` (the map sending each label
``a`` to the index of the latest selected post carrying ``a``), the minimum
cardinality ``h_{j,xi}`` of a ``(lambda, j)``-cover realising that pattern.
Patterns may reference posts up to ``f(j)`` — the last post within ``lambda``
after ``t_j`` — because such "future" posts can cover ``P_j``.

Transitions follow Equation (1) of the paper: a ``j``-pattern ``xi`` extends
a ``(j-1)``-pattern ``eta`` when they agree on every index that is already
"old" (``<= f(j-1)``); the cost grows by the number of distinct newly
introduced posts.  A virtual post ``P_0`` carrying every label seeds the
recursion and is subtracted from the final count.

Two structural observations keep the implementation lean (both are proved in
the module tests by exhaustive comparison against brute force):

* the paper's validity condition (ii) — no uncovered same-label post may
  hide between the last selected post and ``t_j`` — holds *by construction*
  under our candidate generation, because a label of ``P_j`` may only map to
  posts within ``lambda`` of ``t_j``, inherited values were valid at
  ``j - 1``, and ``P_j`` is the only post added since;
* condition (i) — the pattern must truly name the latest selected post per
  label — only needs checking against newly introduced posts.

Complexity is ``O(|P|^{2|L|+1})`` as in the paper; a configurable work
budget aborts instances that would blow up instead of hanging the caller.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from ..errors import AlgorithmBudgetExceeded
from .instance import Instance, window
from .post import Post
from .solution import Solution, timed_solution

__all__ = ["opt", "opt_size"]

Pattern = Tuple[int, ...]


class _EndPatternDP:
    """One run of the end-pattern DP over a fixed instance."""

    def __init__(self, instance: Instance, budget: int):
        self.instance = instance
        self.budget = budget
        self.work = 0
        self.labels: List[str] = sorted(instance.labels)
        self.nlabels = len(self.labels)
        # 1-based post array; index 0 is the virtual all-label post.
        self.posts: List[Optional[Post]] = [None]
        self.posts.extend(instance.posts)
        self.values: List[float] = [float("-inf")]
        self.values.extend(p.value for p in instance.posts)
        self.n = len(instance.posts)
        # Per label: sorted global indices of posts carrying it, aligned
        # with the label's posting values, for windowed candidate
        # generation.
        self.label_indices: Dict[str, List[int]] = {a: [] for a in self.labels}
        for idx in range(1, self.n + 1):
            for label in self.posts[idx].labels:
                self.label_indices[label].append(idx)
        # label sets as index tuples for the condition-(i) check
        self.label_pos = {a: k for k, a in enumerate(self.labels)}

    def _charge(self, amount: int) -> None:
        self.work += amount
        if self.work > self.budget:
            raise AlgorithmBudgetExceeded(
                f"OPT exceeded its work budget of {self.budget}; "
                "use a smaller lambda/|L| or an approximation algorithm"
            )

    def _f(self, j: int) -> int:
        """``f(j)``: largest index ``j'`` with ``t_j' - t_j <= lambda``.

        Computed with the same subtraction predicate the candidate windows
        and the cover verifier use — mixing it with the addition form
        ``t_j' <= t_j + lambda`` lets boundary floats classify a post as
        "old" that no window ever offered, dead-ending the DP.
        """
        if j == 0:
            return 0
        # P_j is inside its own window, so the window ends at or past j
        return window(self.values, self.values[j], self.instance.lam)[1] - 1

    def _window(self, label: str, j: int) -> List[int]:
        """Indices of label-carrying posts within ``lambda`` of ``t_j``,
        by the verifier's exact subtraction test."""
        lo, hi = window(
            self.instance.posting(label).values, self.values[j],
            self.instance.lam,
        )
        return self.label_indices[label][lo:hi]

    def solve(self, reconstruct: bool = True):
        """Run the DP.

        With ``reconstruct`` (default) parent pointers are kept at every
        position for backtracking the post set — the paper's
        ``O(|P|^{|L|+1})`` space.  Without it only two frontiers live at
        a time (``O(|P|^{|L|})`` space, as the paper notes suffices for
        the cardinality alone) and the return value is the optimal size.
        """
        if self.n == 0:
            return [] if reconstruct else 0
        zero: Pattern = tuple([0] * self.nlabels)
        frontier: Dict[Pattern, int] = {zero: 1}
        # parents[j][pattern] = (previous pattern, newly introduced indices)
        parents: List[Dict[Pattern, Tuple[Pattern, Tuple[int, ...]]]] = [
            {} for _ in range(self.n + 1)
        ]

        for j in range(1, self.n + 1):
            prev_f = self._f(j - 1)
            post_j = self.posts[j]
            # Candidate choices that are *new* (> f(j-1)) per label; the
            # inherited choice is handled per predecessor pattern.
            new_choices: List[List[int]] = []
            mandatory: List[bool] = []
            for label in self.labels:
                window = [c for c in self._window(label, j) if c > prev_f]
                new_choices.append(window)
                mandatory.append(label in post_j.labels)

            next_frontier: Dict[Pattern, int] = {}
            next_parents = parents[j]
            lam = self.instance.lam
            tj = self.values[j]

            for eta, cost in frontier.items():
                options: List[List[int]] = []
                feasible = True
                for k in range(self.nlabels):
                    opts = list(new_choices[k])
                    inherited = eta[k]
                    if mandatory[k]:
                        # keeping the old post is allowed only if it still
                        # lambda-covers this label of P_j
                        if inherited != 0 and abs(
                            self.values[inherited] - tj
                        ) <= lam:
                            opts.append(inherited)
                    else:
                        opts.append(inherited)
                    if not opts:
                        feasible = False
                        break
                    options.append(opts)
                if not feasible:
                    continue

                combos = 1
                for opts in options:
                    combos *= len(opts)
                self._charge(combos)

                for combo in product(*options):
                    pattern: Pattern = tuple(combo)
                    new_indices = frozenset(
                        v for v in pattern if v > prev_f
                    )
                    if not self._latest_consistent(pattern, new_indices):
                        continue
                    new_cost = cost + len(new_indices)
                    known = next_frontier.get(pattern)
                    if known is None or new_cost < known:
                        next_frontier[pattern] = new_cost
                        if reconstruct:
                            next_parents[pattern] = (
                                eta, tuple(sorted(new_indices))
                            )
            if not next_frontier:
                raise AssertionError(
                    "DP frontier became empty; instance invariant violated"
                )
            frontier = next_frontier

        best_pattern = min(frontier, key=lambda p: (frontier[p], p))
        if not reconstruct:
            # subtract the virtual all-label post P_0
            return frontier[best_pattern] - 1
        return self._backtrack(parents, best_pattern)

    def _latest_consistent(
        self, pattern: Pattern, new_indices
    ) -> bool:
        """Condition (i): each newly introduced post must be the latest
        selected post for *every* label it carries."""
        for idx in new_indices:
            for label in self.posts[idx].labels:
                pos = self.label_pos.get(label)
                if pos is not None and pattern[pos] < idx:
                    return False
        return True

    def _backtrack(self, parents, best_pattern: Pattern) -> List[Post]:
        chosen: set = set()
        pattern = best_pattern
        for j in range(self.n, 0, -1):
            eta, new_indices = parents[j][pattern]
            chosen.update(new_indices)
            pattern = eta
        return [self.posts[idx] for idx in sorted(chosen)]


def _opt_posts(instance: Instance, budget: int) -> List[Post]:
    return _EndPatternDP(instance, budget).solve(reconstruct=True)


def opt(instance: Instance, budget: int = 20_000_000) -> Solution:
    """Solve MQDP exactly with the end-pattern dynamic program.

    Parameters
    ----------
    instance:
        The MQDP instance.  Practical for small ``|L|`` (2-3) and lambdas
        that keep only a handful of posts per window, mirroring the paper's
        usage ("feasible ... where the number of queries is up to 2-3 and
        lambda is less than a minute").
    budget:
        Abort (with :class:`~repro.errors.AlgorithmBudgetExceeded`) once the
        number of examined transitions exceeds this.
    """
    return timed_solution("opt", _opt_posts, instance, budget)


def opt_size(instance: Instance, budget: int = 20_000_000) -> int:
    """Cardinality of the optimum cover.

    Runs the DP in its two-frontier mode — ``O(|P|^{|L|})`` space instead
    of the ``O(|P|^{|L|+1})`` the backtracking pointers need (the trade-off
    Section 4.1 describes) — so it handles instances whose full
    reconstruction would not fit.
    """
    return _EndPatternDP(instance, budget).solve(reconstruct=False)
