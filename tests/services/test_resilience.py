"""The client-side resilience layer: retry policy, retry middleware,
and the per-server circuit breaker."""

import pytest

from repro.services.bus import CallTimeout, ClientCall, ServiceError
from repro.services.resilience import (
    CircuitBreakerMiddleware,
    CircuitOpenError,
    RetryMiddleware,
    RetryPolicy,
)
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import RandomStreams


class _FakeClient:
    service = "test-svc"

    def __init__(self, sim):
        self.sim = sim


def _call(sim, operation="op", server="srv"):
    return ClientCall(
        client=_FakeClient(sim), server_host=server, operation=operation
    )


def _drive(sim, gen):
    """Run a middleware generator to completion inside a process."""
    holder = {}

    def runner():
        holder["result"] = yield from gen
        return holder["result"]

    proc = sim.spawn(runner(), name="drive")
    sim.run(until=proc)
    return holder["result"]


# -- RetryPolicy -----------------------------------------------------------------

def test_policy_backoff_is_exponential_and_capped():
    policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0,
                         jitter=0.0)
    assert [policy.delay(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]


def test_policy_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(base_delay=1.0, jitter=0.5)
    a = [policy.delay(1, RandomStreams(7)["retry"]) for _ in range(3)]
    b = [policy.delay(1, RandomStreams(7)["retry"]) for _ in range(3)]
    assert a == b  # same seed, same jitter sequence
    assert all(1.0 <= d < 1.5 for d in a)


# -- RetryMiddleware -------------------------------------------------------------

def test_retry_reissues_until_success():
    sim = Simulator()
    call = _call(sim)
    attempts = []

    def flaky(call):
        attempts.append(sim.now)
        if len(attempts) < 3:
            raise CallTimeout(call.operation, call.server_host, 1.0)
        return "ok"
        yield  # pragma: no cover - generator marker

    mw = RetryMiddleware(RetryPolicy(jitter=0.0, base_delay=1.0))
    assert _drive(sim, mw(call, flaky)) == "ok"
    assert len(attempts) == 3
    # exponential spacing: attempt 2 after 1 s, attempt 3 after 2 more
    assert attempts == [0.0, 1.0, 3.0]


def test_retry_gives_up_after_max_attempts():
    sim = Simulator()
    call = _call(sim)
    attempts = []

    def always_down(call):
        attempts.append(sim.now)
        raise CallTimeout(call.operation, call.server_host, 1.0)
        yield  # pragma: no cover - generator marker

    mw = RetryMiddleware(RetryPolicy(max_attempts=3, jitter=0.0))
    with pytest.raises(CallTimeout):
        _drive(sim, mw(call, always_down))
    assert len(attempts) == 3


def test_retry_never_reissues_application_faults():
    sim = Simulator()
    call = _call(sim)
    attempts = []

    def faulting(call):
        attempts.append(sim.now)
        raise ServiceError("no such file")  # retryable = False
        yield  # pragma: no cover - generator marker

    mw = RetryMiddleware(RetryPolicy(jitter=0.0))
    with pytest.raises(ServiceError):
        _drive(sim, mw(call, faulting))
    assert len(attempts) == 1


def test_retry_respects_sleep_budget():
    sim = Simulator()
    call = _call(sim)
    attempts = []

    def always_down(call):
        attempts.append(sim.now)
        raise CallTimeout(call.operation, call.server_host, 1.0)
        yield  # pragma: no cover - generator marker

    # first backoff (10 s) would blow the 5 s budget: exactly one attempt
    mw = RetryMiddleware(
        RetryPolicy(max_attempts=10, base_delay=10.0, jitter=0.0, budget=5.0)
    )
    with pytest.raises(CallTimeout):
        _drive(sim, mw(call, always_down))
    assert len(attempts) == 1


def test_retry_jitter_schedule_is_deterministic():
    def schedule():
        sim = Simulator()
        call = _call(sim)
        times = []

        def always_down(call):
            times.append(sim.now)
            raise CallTimeout(call.operation, call.server_host, 1.0)
            yield  # pragma: no cover - generator marker

        mw = RetryMiddleware(
            RetryPolicy(max_attempts=4),
            rng=RandomStreams(2001)["resilience.retry.test"],
        )
        with pytest.raises(CallTimeout):
            _drive(sim, mw(call, always_down))
        return times

    assert schedule() == schedule()


# -- CircuitBreakerMiddleware ----------------------------------------------------

def _tripping_breaker(sim, breaker, call, n):
    """Feed ``n`` retryable failures through the breaker."""
    def down(call):
        raise CallTimeout(call.operation, call.server_host, 1.0)
        yield  # pragma: no cover - generator marker

    for _ in range(n):
        with pytest.raises(CallTimeout):
            _drive(sim, breaker(call, down))


def test_breaker_opens_after_threshold_and_refuses():
    sim = Simulator()
    breaker = CircuitBreakerMiddleware(failure_threshold=3, cooldown=30.0)
    call = _call(sim)
    _tripping_breaker(sim, breaker, call, 3)
    assert breaker.state_of("srv") == "open"

    def never_reached(call):
        raise AssertionError("open breaker must not touch the network")
        yield  # pragma: no cover - generator marker

    with pytest.raises(CircuitOpenError):
        _drive(sim, breaker(call, never_reached))


def test_breaker_half_open_probe_closes_on_success():
    sim = Simulator()
    breaker = CircuitBreakerMiddleware(failure_threshold=2, cooldown=10.0)
    call = _call(sim)
    _tripping_breaker(sim, breaker, call, 2)
    assert breaker.state_of("srv") == "open"

    def healthy(call):
        return "pong"
        yield  # pragma: no cover - generator marker

    # cooldown elapses -> next call is the half-open probe
    def tick():
        yield sim.timeout(11.0)

    sim.run(until=sim.spawn(tick(), name="tick"))
    assert _drive(sim, breaker(call, healthy)) == "pong"
    assert breaker.state_of("srv") == "closed"


def test_breaker_failed_probe_reopens():
    sim = Simulator()
    breaker = CircuitBreakerMiddleware(failure_threshold=2, cooldown=10.0)
    call = _call(sim)
    _tripping_breaker(sim, breaker, call, 2)

    def tick():
        yield sim.timeout(11.0)

    sim.run(until=sim.spawn(tick(), name="tick"))
    _tripping_breaker(sim, breaker, call, 1)  # the probe fails
    assert breaker.state_of("srv") == "open"


def test_interrupted_probe_lets_the_next_call_probe():
    """A probe whose caller is interrupted mid-wait (a stopped pusher
    drives its call in its own process) settles nothing, but must not
    leave the circuit refusing every later call as "probe in flight"."""
    sim = Simulator()
    breaker = CircuitBreakerMiddleware(failure_threshold=2, cooldown=10.0)
    call = _call(sim)
    _tripping_breaker(sim, breaker, call, 2)
    sim.run(until=11.0)

    def hanging(call):
        yield sim.event()           # the reply that never comes

    def healthy(call):
        return "pong"
        yield  # pragma: no cover - generator marker

    probe = sim.spawn(breaker(call, hanging), name="probe")
    sim.run(until=12.0)
    probe.interrupt("stopped")
    sim.run(until=13.0)
    assert _drive(sim, breaker(call, healthy)) == "pong"
    assert breaker.state_of("srv") == "closed"


def test_breaker_is_per_server():
    sim = Simulator()
    breaker = CircuitBreakerMiddleware(failure_threshold=2, cooldown=30.0)
    _tripping_breaker(sim, breaker, _call(sim, server="a"), 2)
    assert breaker.state_of("a") == "open"
    assert breaker.state_of("b") == "closed"

    def healthy(call):
        return "pong"
        yield  # pragma: no cover - generator marker

    assert _drive(sim, breaker(_call(sim, server="b"), healthy)) == "pong"


def test_breaker_is_per_endpoint_on_one_host():
    """A host runs several daemons behind one bus: a wedged RLI must
    not refuse calls to the healthy co-located catalog service."""
    sim = Simulator()
    breaker = CircuitBreakerMiddleware(failure_threshold=2, cooldown=30.0)
    _tripping_breaker(sim, breaker, _call(sim, operation="rli.lookup"), 2)
    assert breaker.state_of("srv", "rli") == "open"
    assert breaker.state_of("srv", "catalog") == "closed"
    assert breaker.state_of("srv") == "open"  # worst state across the host

    def healthy(call):
        return "pong"
        yield  # pragma: no cover - generator marker

    assert (
        _drive(sim, breaker(_call(sim, operation="catalog.info"), healthy))
        == "pong"
    )
    with pytest.raises(CircuitOpenError):
        _drive(sim, breaker(_call(sim, operation="rli.lookup"), healthy))


def test_application_faults_do_not_trip_the_breaker():
    sim = Simulator()
    breaker = CircuitBreakerMiddleware(failure_threshold=2, cooldown=30.0)
    call = _call(sim)

    def faulting(call):
        raise ServiceError("no such file")
        yield  # pragma: no cover - generator marker

    for _ in range(5):
        with pytest.raises(ServiceError):
            _drive(sim, breaker(call, faulting))
    assert breaker.state_of("srv") == "closed"
