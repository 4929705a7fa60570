"""The client-side resilience layer: the retry middleware's backoff
schedule and the per-server circuit breaker, at their fixed constants."""

import pytest

from repro.services.bus import CallTimeout, ClientCall, ServiceError
from repro.services.resilience import (
    BREAKER_COOLDOWN,
    BREAKER_THRESHOLD,
    RETRY_ATTEMPTS,
    RETRY_BASE_DELAY,
    RETRY_JITTER,
    CircuitBreakerMiddleware,
    CircuitOpenError,
    RetryMiddleware,
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


def _always_down(sim, attempts):
    """A callee that records when it was tried and always times out."""
    def call_next(call):
        attempts.append(sim.now)
        raise CallTimeout(call.operation, call.server_host, 1.0)
        yield  # pragma: no cover - generator marker

    return call_next


def _seeded():
    return RandomStreams(2001)["resilience.retry.test"]


# -- RetryMiddleware -------------------------------------------------------------

def test_retry_schedule_is_exponential_with_one_draw_per_retry():
    """Retry n sleeps 0.5 * 2**(n-1) * (1 + 0.25 u), one u per retry, in
    order.  The draw order is what keeps a run's fingerprints
    reproducible."""
    sim = Simulator()
    attempts = []
    with pytest.raises(CallTimeout):
        _drive(sim, RetryMiddleware(_seeded())(
            _call(sim), _always_down(sim, attempts)
        ))
    twin = _seeded()
    expected = [0.0]
    for n in (1, 2, 3):
        delay = RETRY_BASE_DELAY * 2.0 ** (n - 1)
        delay *= 1.0 + RETRY_JITTER * float(twin.random())
        expected.append(expected[-1] + delay)
    assert attempts == expected
    # exactly three draws: the middleware's stream is where the twin's is
    rng = _seeded()
    sim = Simulator()
    with pytest.raises(CallTimeout):
        _drive(sim, RetryMiddleware(rng)(_call(sim), _always_down(sim, [])))
    assert rng.random() == twin.random()


def test_policy_jitter_is_seeded_and_bounded():
    """Every sleep lies in its jitter band, [1, 1.25) times its base, so
    the three together stay under 4.4 s: no cap could bind."""
    sim = Simulator()
    attempts = []
    with pytest.raises(CallTimeout):
        _drive(sim, RetryMiddleware(_seeded())(
            _call(sim), _always_down(sim, attempts)
        ))
    gaps = [b - a for a, b in zip(attempts, attempts[1:])]
    assert all(
        0.5 * 2 ** n <= gap < 0.5 * 2 ** n * 1.25
        for n, gap in enumerate(gaps)
    )
    assert attempts[-1] < 4.4


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

    assert _drive(sim, RetryMiddleware(_seeded())(call, flaky)) == "ok"
    assert len(attempts) == 3
    # exponential spacing: attempt 2 after ~0.5 s, attempt 3 ~1 s later
    assert 0.5 <= attempts[1] < 0.625
    assert 1.0 <= attempts[2] - attempts[1] < 1.25


def test_retry_gives_up_after_max_attempts():
    sim = Simulator()
    attempts = []
    with pytest.raises(CallTimeout):
        _drive(sim, RetryMiddleware(_seeded())(
            _call(sim), _always_down(sim, attempts)
        ))
    assert len(attempts) == RETRY_ATTEMPTS == 4


def test_retry_never_reissues_application_faults():
    sim = Simulator()
    call = _call(sim)
    attempts = []

    def faulting(call):
        attempts.append(sim.now)
        raise ServiceError("no such file")  # retryable = False
        yield  # pragma: no cover - generator marker

    with pytest.raises(ServiceError):
        _drive(sim, RetryMiddleware(_seeded())(call, faulting))
    assert len(attempts) == 1


def test_retry_jitter_schedule_is_deterministic():
    def schedule():
        sim = Simulator()
        times = []
        with pytest.raises(CallTimeout):
            _drive(sim, RetryMiddleware(_seeded())(
                _call(sim), _always_down(sim, times)
            ))
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
    breaker = CircuitBreakerMiddleware()
    call = _call(sim)
    _tripping_breaker(sim, breaker, call, BREAKER_THRESHOLD - 1)
    assert breaker.state_of("srv") == "closed"
    _tripping_breaker(sim, breaker, call, 1)
    assert BREAKER_THRESHOLD == 5
    assert breaker.state_of("srv") == "open"

    def never_reached(call):
        raise AssertionError("open breaker must not touch the network")
        yield  # pragma: no cover - generator marker

    with pytest.raises(CircuitOpenError):
        _drive(sim, breaker(call, never_reached))
    # still open a moment before the cooldown runs out
    sim.run(until=BREAKER_COOLDOWN - 0.5)
    with pytest.raises(CircuitOpenError):
        _drive(sim, breaker(call, never_reached))


def test_breaker_half_open_probe_closes_on_success():
    sim = Simulator()
    breaker = CircuitBreakerMiddleware()
    call = _call(sim)
    _tripping_breaker(sim, breaker, call, BREAKER_THRESHOLD)
    assert breaker.state_of("srv") == "open"

    def healthy(call):
        return "pong"
        yield  # pragma: no cover - generator marker

    # cooldown elapses -> next call is the half-open probe
    def tick():
        yield sim.timeout(BREAKER_COOLDOWN + 1.0)

    sim.run(until=sim.spawn(tick(), name="tick"))
    assert _drive(sim, breaker(call, healthy)) == "pong"
    assert breaker.state_of("srv") == "closed"


def test_breaker_failed_probe_reopens():
    sim = Simulator()
    breaker = CircuitBreakerMiddleware()
    call = _call(sim)
    _tripping_breaker(sim, breaker, call, BREAKER_THRESHOLD)

    def tick():
        yield sim.timeout(BREAKER_COOLDOWN + 1.0)

    sim.run(until=sim.spawn(tick(), name="tick"))
    _tripping_breaker(sim, breaker, call, 1)  # the probe fails
    assert breaker.state_of("srv") == "open"


def test_interrupted_probe_lets_the_next_call_probe():
    """A probe whose caller is interrupted mid-wait (a stopped pusher
    drives its call in its own process) settles nothing, but must not
    leave the circuit refusing every later call as "probe in flight"."""
    sim = Simulator()
    breaker = CircuitBreakerMiddleware()
    call = _call(sim)
    _tripping_breaker(sim, breaker, call, BREAKER_THRESHOLD)
    sim.run(until=BREAKER_COOLDOWN + 1.0)

    def hanging(call):
        yield sim.event()           # the reply that never comes

    def healthy(call):
        return "pong"
        yield  # pragma: no cover - generator marker

    probe = sim.spawn(breaker(call, hanging), name="probe")
    sim.run(until=BREAKER_COOLDOWN + 2.0)
    probe.interrupt("stopped")
    sim.run(until=BREAKER_COOLDOWN + 3.0)
    assert _drive(sim, breaker(call, healthy)) == "pong"
    assert breaker.state_of("srv") == "closed"


def test_breaker_is_per_server():
    sim = Simulator()
    breaker = CircuitBreakerMiddleware()
    _tripping_breaker(sim, breaker, _call(sim, server="a"), BREAKER_THRESHOLD)
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
    breaker = CircuitBreakerMiddleware()
    _tripping_breaker(sim, breaker, _call(sim, operation="rli.lookup"),
                      BREAKER_THRESHOLD)
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
    breaker = CircuitBreakerMiddleware()
    call = _call(sim)

    def faulting(call):
        raise ServiceError("no such file")
        yield  # pragma: no cover - generator marker

    for _ in range(2 * BREAKER_THRESHOLD):
        with pytest.raises(ServiceError):
            _drive(sim, breaker(call, faulting))
    assert breaker.state_of("srv") == "closed"
