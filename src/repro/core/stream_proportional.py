"""Proportional diversity in the streaming setting.

Section 6 defines the variable lambda of Equation (2) over a *static*
collection — the density around a post looks both backwards and forwards.
A streaming algorithm cannot see forward, so this module supplies the
missing piece (the paper leaves it implicit): a **causal** density
estimate, and a StreamScan variant that assigns every arriving post its
Equation (2) radius from that estimate.

* :class:`OnlineDensityEstimator` — per-label exponentially-decayed
  arrival rates: on each arrival the decayed counter is bumped, so
  ``rate = counter / decay`` estimates posts-per-time-unit over roughly
  the last ``decay`` seconds.  Deterministic given the stream, so a run
  can be *replayed* into an offline
  :class:`~repro.core.coverage.VariableLambda` model for verification.
* :class:`StreamScanProportional` — per-label pending windows as in
  StreamScan, but every post carries its own radius (assigned on
  arrival): an emitted post covers an arrival iff their distance is
  within the *emitted* post's radius (the coverer-radius convention of
  Section 6), and each emission clears exactly the pending posts it
  covers, leaving the rest to a later decision.

The output is always a valid cover under the replayed radii, every
emission happens within ``tau`` of publication (or within the post's own
radius, whichever deadline fires first), and on a bursty stream the dense
region receives proportionally more representatives than fixed-lambda
StreamScan gives it — all asserted in the tests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..stream.events import Emission, StreamingAlgorithm
from .coverage import VariableLambda
from .post import Post

__all__ = ["OnlineDensityEstimator", "StreamScanProportional"]


class OnlineDensityEstimator:
    """Exponentially-decayed per-label arrival rates.

    ``counter_a <- counter_a * exp(-(t - t_prev)/decay) + 1`` on each
    label-``a`` arrival; ``rate_a = counter_a / decay``.  The same
    machinery tracks the global rate of relevant posts, which serves as
    Equation (2)'s ``density_0`` unless a static one is supplied.
    """

    def __init__(self, decay: float):
        if decay <= 0:
            raise ValueError(f"decay must be positive, got {decay}")
        self.decay = float(decay)
        self._counters: Dict[str, float] = {}
        self._stamps: Dict[str, float] = {}
        self._global_counter = 0.0
        self._global_stamp: Optional[float] = None

    def _decayed(self, counter: float, last: Optional[float],
                 now: float) -> float:
        if last is None:
            return counter
        return counter * math.exp(-(now - last) / self.decay)

    def observe(self, post: Post) -> None:
        """Fold one arrival into the per-label and global counters."""
        now = post.value
        self._global_counter = self._decayed(
            self._global_counter, self._global_stamp, now
        ) + 1.0
        self._global_stamp = now
        for label in post.labels:
            counter = self._decayed(
                self._counters.get(label, 0.0),
                self._stamps.get(label), now,
            )
            self._counters[label] = counter + 1.0
            self._stamps[label] = now

    def rate(self, label: str, now: float) -> float:
        """Estimated label arrivals per time unit at time ``now``."""
        counter = self._decayed(
            self._counters.get(label, 0.0), self._stamps.get(label), now
        )
        return counter / self.decay

    def global_rate(self, now: float) -> float:
        """Estimated relevant arrivals per time unit at time ``now``."""
        counter = self._decayed(
            self._global_counter, self._global_stamp, now
        )
        return counter / self.decay


class StreamScanProportional(StreamingAlgorithm):
    """StreamScan with per-post Equation (2) radii from a causal estimator.

    Parameters
    ----------
    labels:
        The subscription's label universe.
    lam0:
        Equation (2)'s base threshold; radii live in ``(0, e * lam0]``.
    tau:
        Maximum decision delay, as in StreamMQDP.
    density0:
        Static reference density.  ``None`` uses the online global rate
        (floored at a tenth of a post per ``decay`` so early radii do not
        explode).
    decay:
        Estimator memory; defaults to ``4 * lam0`` — long enough to be
        stable across a window, short enough to track bursts.
    """

    name = "stream_scan_prop"

    def __init__(
        self,
        labels,
        lam0: float,
        tau: float,
        density0: Optional[float] = None,
        decay: Optional[float] = None,
    ):
        # `not >` / `not >=` refuse NaN too, on which a stream never drains
        if not lam0 > 0:
            raise ValueError(f"lam0 must be positive, got {lam0}")
        if not tau >= 0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        self.labels = sorted(labels)
        self.lam0 = float(lam0)
        self.tau = float(tau)
        self.density0 = density0
        self.estimator = OnlineDensityEstimator(
            decay if decay is not None else 4.0 * lam0
        )
        # causal radii per (uid, label), recorded for offline replay
        self.assigned_radii: Dict[Tuple[int, str], float] = {}
        self._pending: Dict[str, List[Post]] = {a: [] for a in self.labels}
        self._last_emitted: Dict[str, Optional[Post]] = {
            a: None for a in self.labels
        }
        self._emitted_uids: set = set()

    # -- Equation (2), causally ---------------------------------------------

    def _radius(self, post: Post, label: str) -> float:
        baseline = self.density0
        if baseline is None:
            baseline = max(
                self.estimator.global_rate(post.value),
                0.1 / self.estimator.decay,
            )
        local = self.estimator.rate(label, post.value)
        return self.lam0 * math.exp(1.0 - local / baseline)

    def radius_of(self, uid: int, label: str) -> float:
        """The radius assigned to a pair when its post arrived."""
        return self.assigned_radii[(uid, label)]

    def replay_model(self, upper: Optional[float] = None) -> VariableLambda:
        """The offline coverage model induced by this run's causal radii
        (posts never seen get the neutral ``lam0``)."""
        radii = dict(self.assigned_radii)
        lam0 = self.lam0
        return VariableLambda(
            radius_fn=lambda post, label: radii.get(
                (post.uid, label), lam0
            ),
            upper_bound=upper if upper is not None
            else self.lam0 * math.e,
        )

    # -- streaming mechanics ---------------------------------------------------

    def _covered(self, label: str, post: Post) -> bool:
        last = self._last_emitted[label]
        if last is None:
            return False
        radius = self.assigned_radii[(last.uid, label)]
        return abs(last.value - post.value) <= radius

    def _deadline(self, label: str) -> Optional[float]:
        pending = self._pending[label]
        if not pending:
            return None
        oldest = pending[0]
        oldest_radius = self.assigned_radii[(oldest.uid, label)]
        return min(
            pending[-1].value + self.tau, oldest.value + oldest_radius
        )

    def next_deadline(self) -> Optional[float]:
        deadlines = [
            d for d in (self._deadline(a) for a in self.labels)
            if d is not None
        ]
        return min(deadlines) if deadlines else None

    def on_arrival(self, post: Post) -> List[Emission]:
        self.estimator.observe(post)
        emissions: List[Emission] = []
        for label in post.labels:
            if label not in self._pending:
                continue
            self.assigned_radii[(post.uid, label)] = self._radius(
                post, label
            )
            if self._covered(label, post):
                continue
            # Admitting the post must keep the window invariant: some
            # single pick covers every pending post.  Emitting removes at
            # least the pick itself, so this loop terminates; leftovers
            # that an emission's radius missed stay pending for a later
            # decision.
            while self._pending[label] and not self._pick_covers_all(
                label, post
            ):
                emissions.extend(self._emit(label, post.value))
            if not self._covered(label, post):
                self._pending[label].append(post)
        return emissions

    def _pick_covers_all(self, label: str, incoming: Post) -> bool:
        """Would some pending-or-incoming post cover the whole window
        including ``incoming``?  (Checked with each candidate's own
        radius, the directional-coverage convention.)"""
        window = self._pending[label] + [incoming]
        for candidate in window:
            radius = self.assigned_radii[(candidate.uid, label)]
            if all(
                abs(candidate.value - other.value) <= radius
                for other in window
            ):
                return True
        return False

    def _best_pick(self, label: str) -> Post:
        """The pending post that covers the whole window and reaches
        furthest forward; the window invariant guarantees one exists."""
        pending = self._pending[label]
        best = None
        best_reach = float("-inf")
        for candidate in pending:
            radius = self.assigned_radii[(candidate.uid, label)]
            if all(
                abs(candidate.value - other.value) <= radius
                for other in pending
            ):
                reach = candidate.value + radius
                if reach > best_reach:
                    best_reach = reach
                    best = candidate
        if best is None:  # pragma: no cover - invariant violation guard
            best = pending[-1]
        return best

    def _emit(self, label: str, now: float) -> List[Emission]:
        picked = self._best_pick(label)
        radius = self.assigned_radii[(picked.uid, label)]
        self._last_emitted[label] = picked
        self._pending[label] = [
            p for p in self._pending[label]
            if abs(p.value - picked.value) > radius
        ]
        if picked.uid in self._emitted_uids:
            return []
        self._emitted_uids.add(picked.uid)
        return [Emission(post=picked, emitted_at=now)]

    def on_deadline(self, now: float) -> List[Emission]:
        emissions: List[Emission] = []
        for label in self.labels:
            if self._deadline(label) != now:
                continue
            emissions.extend(self._emit(label, now))
        return emissions
