"""The arrival generator's hand-off to the queue outlives the queue's host."""

from repro.services.bus import ConnectionReset
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workload.arrivals import ArrivalGenerator, ArrivalProfile


class DownThenUpQueue:
    """A queue proxy whose host is down for its first ``down`` submits."""

    def __init__(self, sim, down: int):
        self.sim = sim
        self.down = down
        self.offered: list[list[str]] = []   # keys of every batch offered
        self.taken: dict[str, dict] = {}     # key -> task, first one kept

    def submit_bulk(self, tasks):
        self.offered.append([task["key"] for task in tasks])
        if len(self.offered) <= self.down:
            return self.sim.event().fail(
                ConnectionReset("task.submit_bulk", "cern", "host is down")
            )
        for task in tasks:
            self.taken.setdefault(task["key"], task)
        return self.sim.event().succeed(list(range(len(tasks))))


def test_a_refused_submit_is_offered_again_until_the_queue_takes_it():
    sim = Simulator()
    queue = DownThenUpQueue(sim, down=2)
    arrivals = ArrivalGenerator(
        sim, queue, ArrivalProfile(rate=10.0, tick=1.0),
        lfns=["a.db", "b.db"], dest_sites=["anl", "caltech"],
        rng=RandomStreams(3)["workload.arrivals"], total=60,
    )
    sim.spawn(arrivals.run(), name="workload-arrivals")
    sim.run(until=arrivals.done)
    first, second, third = queue.offered[:3]
    # each refused batch comes back whole, keys and all, ahead of the new
    assert second[:len(first)] == first
    assert third[:len(second)] == second
    # every released pick task reached the queue exactly once, and the
    # generator did not finish before it had
    assert len(queue.taken) == arrivals.pick_tasks
    assert sum(
        sum(task["payload"]["demand"].values())
        for task in queue.taken.values()
    ) == arrivals.admitted == 60
