"""Core discrete-event scheduler: events, processes, and the simulator loop.

The kernel keeps a single priority queue of ``(time, priority, seq, event)``
entries.  Triggering an event schedules it; when the simulator pops it, the
event's callbacks run, which typically resume suspended processes.  Time is a
float in seconds.

Every event class is slotted and :meth:`Simulator.run` drains the queue
in one local loop (:func:`step`): what one event costs the host is the
heap pop, its callbacks and a crash check, not a chain of method calls.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
]

#: Priority for events scheduled by :meth:`Event.succeed` / :meth:`Event.fail`
#: at the current instant; URGENT events (process bootstraps) run first.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

_FOREVER = float("inf")
#: a deadline no next event meets: the loop stops after one event
_NEVER = float("-inf")


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (double trigger, etc.)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (value/exception set and scheduled), and *processed* (callbacks ran).
    Yielding a pending or triggered event from a process suspends the process
    until the event is processed; yielding an already-processed event resumes
    the process immediately (at the same simulation time).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event has left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, 0.0, PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(self, 0.0, PRIORITY_NORMAL)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Event.__init__ and Simulator._schedule, written out: a timer is
        # the kernel's most frequent event
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, PRIORITY_NORMAL, seq, self))


class _Initialize(Event):
    """Internal event used to bootstrap a freshly spawned process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._triggered = True
        self.callbacks.append(process._resume)
        sim._schedule(self, 0.0, PRIORITY_URGENT)


class Process(Event):
    """A running coroutine.  A process is itself an event that triggers
    (with the generator's return value) when the coroutine finishes, so
    processes can wait on each other by yielding them.

    Every process carries an ambient ``context`` (a request-trace context,
    or ``None``), inherited from the process that spawned it.  The service
    bus sets it on RPC handler processes so that any work spawned while
    serving a request — nested calls, transfers, network flows — can be
    attributed to the originating trace without threading a context
    argument through every call signature.
    """

    __slots__ = ("name", "context", "_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"spawn() needs a generator, got {generator!r}")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        active = sim._active_process
        self.context: Any = active.context if active is not None else None
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"{self.name} has already terminated")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.sim)
        interrupt_event._triggered = True
        interrupt_event._exception = Interrupt(cause)
        # Defuse the event the process is currently waiting on so that its
        # eventual trigger does not resume the process a second time.
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        interrupt_event.callbacks = [self._resume]
        self.sim._schedule(interrupt_event, 0.0, PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self
        self._waiting_on = None
        try:
            if event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            sim._active_process = None
            if not self._triggered:
                self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An un-handled Interrupt terminates the process "successfully
            # with a cause" would be surprising; propagate as failure.
            sim._active_process = None
            if not self._triggered:
                self.fail(exc)
            return
        except BaseException as exc:
            sim._active_process = None
            if not self._triggered:
                self.fail(exc)
            if not self.callbacks and not isinstance(exc, Interrupt):
                # Nobody is waiting on this process: surface the crash.
                sim._crashed_processes.append((self, exc))
            return
        sim._active_process = None
        if not isinstance(target, Event):
            self._generator.throw(
                TypeError(f"process {self.name!r} yielded non-event {target!r}")
            )
            return
        if target.callbacks is None:
            # Already processed: resume immediately at the current time.
            resume = Event(sim)
            resume._triggered = True
            resume._value = target._value
            resume._exception = target._exception
            resume.callbacks = [self._resume]
            sim._schedule(resume, 0.0, PRIORITY_URGENT)
            self._waiting_on = resume
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class _Condition(Event):
    """Base for AllOf/AnyOf composite events.  A constituent already
    processed at construction is settled at once, in list order; every
    other one is observed when it is processed."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.callbacks is None:
                self._settle(event)
            else:
                event.callbacks.append(self._observe)

    def _settle(self, event: Event) -> None:
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every constituent event has triggered.

    ``_pending`` counts the constituents not processed at construction (a
    duplicate once per place in the list); each arrival counts it down,
    so the last one triggers the condition without a rescan of the list.
    """

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        events = list(events)
        self._pending = sum(event.callbacks is not None for event in events)
        super().__init__(sim, events)
        if not self.events:
            self.succeed([])

    def _settle(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
        elif not self._pending:
            self.succeed([e._value for e in self.events])

    def _observe(self, event: Event) -> None:
        self._pending -= 1
        self._settle(event)


class AnyOf(_Condition):
    """Triggers as soon as one constituent event triggers."""

    __slots__ = ()

    def _settle(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(event._value)

    _observe = _settle


def step(
    sim: "Simulator", deadline: float, stop: Optional[Event]
) -> Generator[None, None, None]:
    """The simulator's one event loop, shared by :meth:`Simulator.step`
    and both modes of :meth:`Simulator.run`.

    Each resume pops one event — in ``(time, priority, seq)`` order —
    moves the clock to it, runs its callbacks and surfaces a process
    crash.  It then yields while the next event is due by ``deadline``
    and ``stop`` (if any) is not processed, and returns otherwise, so the
    caller checks only the first event and a profile counts exactly one
    call of ``step`` per event processed.
    """
    queue = sim._queue
    crashed = sim._crashed_processes
    pop = heappop
    while True:
        now, _priority, _seq, event = pop(queue)
        sim._now = now
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if crashed:
            process, exc = crashed.pop(0)
            raise SimulationError(
                f"process {process.name!r} crashed at t={now}: {exc!r}"
            ) from exc
        if (not queue or queue[0][0] > deadline
                or (stop is not None and stop.callbacks is None)):
            return
        yield


class Simulator:
    """The event loop: owns simulated time and the pending-event queue."""

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._crashed_processes: list[tuple[Process, BaseException]] = []
        self._serials: dict[str, int] = {}

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def current_context(self) -> Any:
        """The ambient request context of the running process (or None)."""
        process = self._active_process
        return process.context if process is not None else None

    def next_serial(self, name: str, start: int = 1) -> int:
        """Next value of a named per-simulator id sequence.

        Replaces module-global ``itertools.count`` instances: sequences
        scoped to the simulator restart from ``start`` in every fresh
        simulation, so back-to-back runs in one process produce identical
        identifiers.
        """
        value = self._serials.get(name, start)
        self._serials[name] = value + 1
        return value

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event; trigger with ``succeed``/``fail``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event triggering when every given event has triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event triggering when the first given event triggers."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        self._seq += 1
        heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def step(self) -> None:
        """Process exactly one event."""
        for _ in step(self, _NEVER, None):
            pass

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a time (run to that instant), an :class:`Event`
        (run until it is processed and return its value), or ``None``
        (run until no events remain).
        """
        queue = self._queue
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is not None:
                # Mark the event observed: a process failure awaited through
                # run(until=...) is handled by the caller, not a crash.
                stop_event.callbacks.append(lambda _event: None)
                if queue:
                    for _ in step(self, _FOREVER, stop_event):
                        pass
            if stop_event.processed:
                return stop_event.value
            raise SimulationError("simulation ran out of events before `until` fired")
        deadline = _FOREVER if until is None else float(until)
        if deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        if queue and queue[0][0] <= deadline:
            for _ in step(self, deadline, None):
                pass
        if until is not None:
            self._now = deadline
        return None
