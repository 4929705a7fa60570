"""Token-bucket and fair-share admission: determinism and starvation-freedom."""

import pytest

from repro.simulation.randomness import RandomStreams
from repro.workload.admission import (
    MAX_BACKLOG,
    FairShareAdmission,
    TokenBucket,
)


# -- token bucket ----------------------------------------------------------

def test_bucket_grants_up_to_capacity_then_refuses():
    bucket = TokenBucket(rate=10.0, capacity=100.0)
    assert bucket.take(0.0, 60) == 60
    assert bucket.take(0.0, 60) == 40      # only 40 tokens left
    assert bucket.take(0.0, 5) == 0
    assert bucket.granted == 100
    assert bucket.refused == 25


def test_bucket_refills_at_rate_and_clamps_at_capacity():
    bucket = TokenBucket(rate=10.0, capacity=100.0)
    bucket.take(0.0, 100)
    assert bucket.take(5.0, 100) == 50     # 5 s * 10 tokens/s
    assert bucket.available(1000.0) == 100.0   # never exceeds capacity


def test_bucket_is_a_pure_function_of_the_call_sequence():
    calls = [(0.0, 30), (1.5, 20), (1.5, 90), (7.25, 40), (9.0, 100)]
    a = TokenBucket(rate=7.0, capacity=50.0)
    b = TokenBucket(rate=7.0, capacity=50.0)
    assert [a.take(t, n) for t, n in calls] == [b.take(t, n) for t, n in calls]


def test_bucket_rejects_nonsense_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, capacity=10.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, capacity=0.0)


# -- fair share ------------------------------------------------------------

def _skewed():
    fair = FairShareAdmission({"atlas": 3.0, "cms": 2.0, "alice": 1.0})
    fair.offer("atlas", 9_000)     # dominant demand
    fair.offer("cms", 60)
    fair.offer("alice", 25)
    return fair


def test_drain_order_is_deterministic_for_identical_inputs():
    # the same offered load drained with the same budgets must release
    # identically — seeded arrival streams depend on it
    rng = RandomStreams(42)["test.fairshare"]
    offers = [
        (vo, int(n))
        for vo, n in zip(
            [("atlas", "cms", "alice")[int(i)]
             for i in rng.integers(0, 3, size=50)],
            rng.integers(1, 400, size=50),
        )
    ]
    budgets = [int(b) for b in rng.integers(10, 300, size=30)]

    def play():
        fair = FairShareAdmission({"atlas": 3.0, "cms": 2.0, "alice": 1.0})
        releases = []
        next_offer = 0
        for budget in budgets:
            for vo, n in offers[next_offer:next_offer + 2]:
                fair.offer(vo, n)
            next_offer += 2
            releases.append(fair.drain(budget))
        return releases

    assert play() == play()


def test_every_backlogged_vo_progresses_each_round():
    fair = _skewed()
    before = {vo: fair.backlog(vo) for vo in ("atlas", "cms", "alice")}
    while fair.backlog() > 0:
        fair.drain(48)
        after = {vo: fair.backlog(vo) for vo in ("atlas", "cms", "alice")}
        for vo in before:
            if before[vo] > 0:
                assert after[vo] < before[vo], (
                    f"{vo} starved: backlog stuck at {after[vo]}"
                )
        before = after


def test_small_vos_finish_despite_a_dominant_one():
    fair = _skewed()
    rounds = 0
    while (fair.backlog("cms") or fair.backlog("alice")) and rounds < 30:
        fair.drain(48)
        rounds += 1
    assert fair.backlog("cms") == 0 and fair.backlog("alice") == 0
    assert fair.backlog("atlas") > 0     # the heavy VO is still working
    # ... and everything eventually drains
    while fair.backlog():
        fair.drain(480)
    assert fair.stats["atlas"].admitted == 9_000


def test_admitted_shares_track_weights_under_saturation():
    fair = FairShareAdmission({"atlas": 3.0, "cms": 2.0, "alice": 1.0})
    for vo in ("atlas", "cms", "alice"):
        fair.offer(vo, 50_000)          # everyone saturated
    for _ in range(100):
        fair.drain(120)
    admitted = {vo: fair.stats[vo].admitted for vo in fair.weights}
    total = sum(admitted.values())
    assert admitted["atlas"] / total == pytest.approx(3 / 6, abs=0.02)
    assert admitted["cms"] / total == pytest.approx(2 / 6, abs=0.02)
    assert admitted["alice"] / total == pytest.approx(1 / 6, abs=0.02)


def test_backlog_cap_sheds_and_counts():
    fair = FairShareAdmission({"atlas": 1.0})
    assert fair.offer("atlas", 150_000) == 150_000
    assert fair.offer("atlas", 100_000) == MAX_BACKLOG - 150_000
    assert fair.stats["atlas"].shed == 250_000 - MAX_BACKLOG == 50_000
    assert fair.stats["atlas"].offered == 250_000
    assert fair.backlog("atlas") == MAX_BACKLOG
    # a full backlog takes nothing until a drain makes room
    assert fair.offer("atlas", 1) == 0
    fair.drain(40)
    assert fair.offer("atlas", 100) == 40


def test_idle_vo_carries_no_deficit_windfall():
    fair = FairShareAdmission({"atlas": 1.0, "cms": 1.0})
    fair.offer("atlas", 1_000)
    for _ in range(25):                  # cms idle while atlas drains
        fair.drain(40)
    # both backlogged again: cms must not burst past its equal-weight
    # slice on credit accumulated while it was idle
    fair.offer("atlas", 1_000)
    fair.offer("cms", 1_000)
    released = fair.drain(40)
    cms_share = dict(released).get("cms", 0)
    assert cms_share <= 24


def test_rejects_nonsense_parameters():
    with pytest.raises(ValueError):
        FairShareAdmission({})
    with pytest.raises(ValueError):
        FairShareAdmission({"atlas": 0.0})
