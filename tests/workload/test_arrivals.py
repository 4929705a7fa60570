"""The arrival generator: its hand-off to the queue outlives the queue's
host, and it releases demand in sorted category order."""

import random

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


class RecordingRng:
    """The generator's stream, keeping every multinomial draw."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def poisson(self, lam):
        return self.rng.poisson(lam)

    def multinomial(self, n, probs):
        counts = self.rng.multinomial(n, probs)
        self.draws.append(counts)
        return counts


def oracle_pop(fifo: list[dict], n: int) -> dict:
    """``_pop_demand`` as it was: chunks as ``{category: count}`` dicts,
    each sorted at every pop."""
    demand: dict = {}
    while n > 0 and fifo:
        chunk = fifo[0]
        for cat in sorted(chunk):
            if n <= 0:
                break
            take = min(chunk[cat], n)
            chunk[cat] -= take
            if chunk[cat] == 0:
                del chunk[cat]
            demand[cat] = demand.get(cat, 0) + take
            n -= take
        if not chunk:
            fifo.pop(0)
    return demand


def test_demand_is_released_in_sorted_category_order_across_chunks():
    """Chunks kept in sorted order release exactly what sorting each
    chunk at every pop released: random takes, partial and spanning
    chunks, from file and site lists given out of order."""
    sim = Simulator()
    rng = RecordingRng(RandomStreams(5)["workload.arrivals"])
    arrivals = ArrivalGenerator(
        sim, None, ArrivalProfile(rate=40.0, tick=1.0),
        lfns=["run7.db", "run10.db", "a.db", "zz.db", "run2.db", "b.db"],
        dest_sites=["caltech", "anl", "slac"],
        rng=rng, total=10_000,
    )
    oracle: dict[str, list[dict]] = {vo: [] for vo in arrivals._chunks}
    for _ in range(6):
        before = {vo: len(fifo) for vo, fifo in arrivals._chunks.items()}
        first = len(rng.draws)
        arrivals._draw_arrivals()
        grew = [vo for vo in arrivals.profile.shares()
                if len(arrivals._chunks[vo]) > before.get(vo, 0)]
        for vo, counts in zip(grew, rng.draws[first:]):
            oracle[vo].append({
                arrivals._categories[i]: int(c)
                for i, c in enumerate(counts) if c
            })
    assert any(len(fifo) > 1 for fifo in oracle.values())
    picks = random.Random(9)
    vos = sorted(oracle)
    while any(oracle.values()):
        vo = picks.choice(vos)
        n = picks.choice((1, 2, 3, 7, 25, 120))
        assert list(arrivals._pop_demand(vo, n).items()) == list(
            oracle_pop(oracle[vo], n).items()
        )
        assert [dict(chunk) for chunk in arrivals._chunks[vo]] == oracle[vo]
    assert not any(arrivals._chunks.values())
