"""Unit tests for the token bucket and the admission controller."""

from __future__ import annotations

import math

import pytest

from repro.index.query import TopicQuery
from repro.service import AdmissionController, DiversificationService, \
    ServiceConfig, TokenBucket
from repro.service.admission import ADMIT, DEGRADE, SHED


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_bucket_starts_full_and_drains():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
    assert bucket.available() == 3.0
    assert all(bucket.try_acquire() for _ in range(3))
    assert not bucket.try_acquire()


def test_bucket_refills_continuously_up_to_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
    for _ in range(3):
        bucket.try_acquire()
    clock.now = 0.75  # 1.5 tokens back
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    clock.now = 100.0  # refill clamps at burst
    assert bucket.available() == 3.0


def test_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=-1.0)


@pytest.mark.parametrize("rate, burst", [
    (math.nan, None), (math.nan, 4.0), (1.0, math.nan),
])
def test_bucket_refuses_nan(rate, burst):
    # a NaN bucket would shed every request as "token bucket empty"
    with pytest.raises(ValueError):
        TokenBucket(rate=rate, burst=burst)


def test_bucket_keeps_infinite_rate_and_burst():
    bucket = TokenBucket(rate=math.inf, burst=math.inf)
    assert all(bucket.try_acquire() for _ in range(100))


@pytest.mark.parametrize("field", ["rate", "burst"])
def test_a_service_with_a_nan_rate_or_burst_is_refused(field):
    settings = {"rate": 10.0, field: math.nan}
    with pytest.raises(ValueError):
        DiversificationService(
            [TopicQuery("golf", ["golf"])], ServiceConfig(**settings)
        )


def test_admit_below_soft_watermark():
    controller = AdmissionController(soft_watermark=4, hard_watermark=8)
    decision = controller.admit(queue_depth=3)
    assert decision.action == ADMIT
    assert decision.degrade_steps == 0


def test_degrade_steps_scale_with_depth():
    controller = AdmissionController(soft_watermark=4, hard_watermark=100)
    assert controller.admit(4).degrade_steps == 1
    assert controller.admit(8).degrade_steps == 2
    assert controller.admit(13).degrade_steps == 3


def test_shed_at_hard_watermark():
    controller = AdmissionController(soft_watermark=4, hard_watermark=8)
    decision = controller.admit(8)
    assert decision.action == SHED
    assert "hard watermark" in decision.reason


def test_shed_on_empty_bucket_even_when_queue_is_shallow():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
    controller = AdmissionController(bucket=bucket)
    assert controller.admit(0).action == ADMIT
    decision = controller.admit(0)
    assert decision.action == SHED
    assert "token bucket" in decision.reason


def test_hard_watermark_shed_does_not_spend_a_token():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
    controller = AdmissionController(
        bucket=bucket, soft_watermark=1, hard_watermark=2
    )
    assert controller.admit(5).action == SHED
    assert bucket.available() == 1.0  # shed before the bucket was touched


def test_decision_tally():
    controller = AdmissionController(soft_watermark=2, hard_watermark=4)
    for depth in (0, 1, 2, 3, 4, 9):
        controller.admit(depth)
    assert controller.decisions == {ADMIT: 2, DEGRADE: 2, SHED: 2}


def test_rejects_inverted_watermarks():
    with pytest.raises(ValueError):
        AdmissionController(soft_watermark=10, hard_watermark=5)
    with pytest.raises(ValueError):
        AdmissionController(soft_watermark=0)
