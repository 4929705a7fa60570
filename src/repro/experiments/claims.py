"""The paper's numbers as one table: a :class:`Claim` per shape claim
of the evaluation, checked by ``python -m repro.experiments claims
[--seed=N]``, which prints every row and exits 1 when one fails."""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from operator import attrgetter, eq, ge, gt, le, lt
from types import SimpleNamespace
from typing import Callable

from repro.experiments import EXPERIMENTS, figure5
from repro.experiments.common import print_table
from repro.experiments.server_overhead import MODES
from repro.netsim.units import KiB
from repro.objectdb.oid import OID
from repro.objectrep import GlobalObjectIndex

__all__ = ["CLAIMS", "Claim", "evaluate", "global_index", "measure", "report"]

OPS = {"<": lt, "<=": le, ">": gt, ">=": ge, "==": eq}


@dataclass(frozen=True)
class Claim:
    """Reads the result of the experiment its id starts with (``index``:
    :func:`global_index`); a limit is a number or a function of it."""

    id: str                     # "<experiment>.<what>"
    section: str                # of the paper
    paper: str                  # the paper's value or shape
    measure: Callable | str     # of the result, or an attribute path
    bound: tuple                # ((op, limit), ...), every one must hold

    @property
    def experiment(self) -> str:
        return self.id.split(".")[0]

    def check(self, result) -> tuple:
        """(measured, [(op, limit value)], ok) against ``result``."""
        get = self.measure
        measured = attrgetter(get)(result) if isinstance(get, str) else get(result)
        limits = [(op, lim(result) if callable(lim) else lim) for op, lim in self.bound]
        return measured, limits, all(OPS[op](measured, lim) for op, lim in limits)


def _rows(experiment: str, section: str, *rows) -> tuple:
    """One experiment's claims from ``(what, paper, measure, *bound)``."""
    return tuple(Claim(f"{experiment}.{what}", section, paper, get, tuple(bound))
                 for what, paper, get, *bound in rows)


def global_index(size: int = 200_000, lookups: int = 10_000):
    """EXP-IDX: a collective lookup and a diff against a ``size``-entry
    global object view, and a 20 000-entry view's serialization."""

    def build(n: int) -> GlobalObjectIndex:
        index = GlobalObjectIndex()
        for i in range(n):
            index.record(f"{i}/aod", "cern", f"f{i // 1000}.db",
                         OID(i // 1000 + 1, 0, i % 1000))
        return index

    index, small = build(size), build(20_000)
    keys = [f"{i}/aod" for i in range(0, size, size // lookups)]
    absent = [f"{i}/aod" for i in range(2 * lookups)]
    located = index.locate_many(keys)
    clone = GlobalObjectIndex.from_index_payload(small.to_index_payload())
    return SimpleNamespace(
        keys=len(keys), located=len(located), absent=len(absent),
        missing=len(index.missing_at("anl", absent)), small=len(small),
        clone=len(clone), every_copy=all(copies for copies in located.values()))


def _near(result, fraction: float):
    """The object-vs-file comparison nearest this selection fraction."""
    return min(result.comparisons,
               key=lambda c: abs(c.selection_fraction - fraction))


def _big(sweep) -> list:
    return [rate for buf, rate in sweep.rates.items() if buf >= 1024 * KiB]


def _fresh(result) -> float:
    return result.case("sequential", "random").bytes_moved


def _figure5(n: int) -> tuple:
    top = lambda s: max(s[n].values())  # noqa: E731
    return _rows("figure5", "§6 Fig. 5",
        (f"{n}mb.x2", "near-linear", lambda s: s[n][2] / s[n][1],
         (">", 1.7), ("<", 2.2)),
        (f"{n}mb.x3", "near-linear", lambda s: s[n][3] / s[n][1],
         (">", 2.5), ("<", 3.3)),
        (f"{n}mb.plateau", "~23 Mbps", top, (">", 20), ("<", 27)),
        (f"{n}mb.9_streams", "9 streams > 5 x one", lambda s: s[n][9],
         (">", lambda s: 5 * s[n][1])),
        (f"{n}mb.10_streams", "no gain once saturated", lambda s: s[n][10],
         ("<", lambda s: top(s) * 1.05)))


def _figure6(n: int) -> tuple:
    top = lambda s: max(s[n].values())  # noqa: E731
    return _rows("figure6", "§6 Fig. 6",
        (f"{n}mb.plateau", "~23 Mbps", top, (">", 20), ("<", 27)),
        (f"{n}mb.3_streams", "peak with just 3 streams", lambda s: s[n][3],
         (">=", lambda s: 0.88 * top(s))),
        (f"{n}mb.1_stream", "one tuned stream > 0.6 x peak", lambda s: s[n][1],
         (">", lambda s: 0.6 * top(s))),
        (f"{n}mb.9_streams", "past 3 streams buys < 10 %", lambda s: s[n][9],
         ("<", lambda s: s[n][3] * 1.1)))


CLAIMS: tuple[Claim, ...] = (
    *_figure5(25), *_figure5(50), *_figure5(100),
    *_rows("figure5", "§6 Fig. 5", *(
        (f"1mb.{k}_streams", "1 MB below 25 MB", lambda s, k=k: s[1][k],
         ("<", lambda s, k=k: s[25][k])) for k in figure5.STREAM_COUNTS),
        ("1mb.peak", "1 MB far below", lambda s: max(s[1].values()), ("<", 12))),
    *_figure6(25), *_figure6(50), *_figure6(100),
    *_rows("figure6", "§6 Fig. 6", ("1mb.peak", "1 MB setup-dominated",
                                     lambda s: max(s[1].values()), ("<", 12))),
    *_rows("tuning", "§6",
        ("T1", "2-3 tuned = 10 untuned streams",
         "tuned_streams_matching_10_untuned", (">=", 2), ("<=", 4)),
        ("T2", "2-3 tuned streams gain ~25 %", "tuned_multi_stream_gain",
         (">", 0.10), ("<", 0.45)),
        ("T3", "untuned streams reach tuned", "untuned_reaches_tuned",
         (">", 0.90)),
        ("headline", "buffer tuning matters most", lambda c: c.tuned[1],
         (">", lambda c: 3.5 * c.untuned[1]))),
    *_rows("buffer", "§6",
        ("formula", "RTT x bottleneck (B)", "formula_buffer",
         (">", 300 * KiB), ("<", 500 * KiB)),
        ("best", "best near the formula (B)", "best_buffer",
         (">=", lambda s: s.formula_buffer / 2),
         ("<=", lambda s: s.formula_buffer * 2)),
        ("16k", "16 KiB crippled", lambda s: s.rates[16 * KiB],
         ("<", lambda s: 0.25 * s.rates[s.best_buffer])),
        ("flat", "flat past the BDP", lambda s: max(_big(s)) - min(_big(s)),
         ("<", lambda s: 0.15 * max(_big(s))))),
    *_rows("objects", "§5.1",
        ("sparse_winner", "object wins", lambda r: _near(r, 0.001).winner,
         ("==", "object")),
        ("sparse_ratio", "by orders of magnitude",
         lambda r: _near(r, 0.001).ratio, (">", 100)),
        ("mid_ratio", "by orders of magnitude", lambda r: _near(r, 0.01).ratio,
         (">", 20)),
        ("majority", "P(file > 50 %) ~ 0",
         lambda r: _near(r, 0.001).majority_probability, ("<", 1e-50)),
        ("efficiency", "only the needed bytes",
         lambda r: _near(r, 0.001).object_strategy.efficiency, (">", 0.9)),
        ("dense_winner", "file wins when dense", lambda r: _near(r, 1).winner,
         ("==", "file")),
        ("crossover", "file wins when dense", "crossover_fraction",
         (">", 0.5))),
    *_rows("pipeline", "§5.2",
        ("speedup", "pipelining pays", "speedup", (">", 1.3)),
        ("ceiling", "hides one phase at most", "speedup", ("<", 2.6)),
        ("faster", "better response time (s)", "pipelined_time",
         ("<", lambda r: r.sequential_time))),
    *_rows("server", "§5.3",
        ("wan", "no bottleneck at 45 Mbps", "wan_unaffected", ("==", True)),
        ("colocated", "a fast NIC degrades (B/s)", lambda r: r.rates[MODES[1][0]],
         ("<", lambda r: 0.7 * r.rates[MODES[0][0]])),
        ("split", "copier on its own box (B/s)", lambda r: r.rates[MODES[2][0]],
         (">", lambda r: 0.9 * r.rates[MODES[0][0]]))),
    *_rows("catalog", "§4.2",
        ("local_publish", "ms-scale (s)", "local_publish", ("<", 0.02)),
        ("remote_publish", "~1 RTT (s)", "remote_publish", (">", 0.1), ("<", 0.5)),
        ("remote_lookup", "~1 RTT (s)", "remote_lookup", (">", 0.1), ("<", 0.3)),
        ("wan_penalty", "remote ops pay the WAN",
         lambda r: r.remote_publish / r.local_publish, (">", 10))),
    *_rows("gdmp", "§4.1, §4.3",
        ("clean.attempts", "one attempt", "clean.attempts", ("==", 1)),
        ("clean.crc_retries", "no CRC retry", "clean.crc_retries", ("==", 0)),
        ("with_abort.attempts", "restart marker", "with_abort.attempts", ("==", 2)),
        ("with_abort.duration", "restart resends the tail (s)",
         "with_abort.transfer_duration",
         ("<", lambda r: 1.7 * r.clean.transfer_duration)),
        ("with_corruption.crc_retries", "CRC catches it",
         "with_corruption.crc_retries", ("==", 1)),
        ("with_corruption.duration", "CRC resends it all (s)",
         "with_corruption.transfer_duration",
         (">", lambda r: 1.7 * r.clean.transfer_duration)),
        *((f"{leg}.{what}", "a correct replica", f"{leg}.{what}", bound)
          for leg in ("clean", "with_abort", "with_corruption")
          for what, bound in (("size", ("==", lambda r: r.size_mb * 1e6)),
                              ("throughput", (">", 0))))),
    *_rows("staging", "§4.4",
        ("warm", "warm: one RPC (s)", "warm.stage_wait", ("<", 1.0)),
        ("cold", "mount + seek + read (s)", "cold.stage_wait",
         (">", 45.0), ("<", 60.0)),
        ("transfer", "WAN leg unaffected (s)",
         lambda r: abs(r.cold.transfer_duration - r.warm.transfer_duration),
         ("<", lambda r: 0.3 * r.warm.transfer_duration))),
    *_rows("legacy", "§4 vs GDMP 1.2",
        ("speedup", "~4-6 x one FTP stream", "clean_speedup", (">", 3.0)),
        ("v2_wire", "resends the tail (MB)", "failure_v2_wire_mb",
         ("<", lambda r: 1.1 * r.size_mb)),
        ("v12_wire", "1.2 resends all (MB)", "failure_v12_wire_mb",
         (">", lambda r: 1.6 * r.size_mb)),
        ("crc_v2", "CRC catches it", "corruption_detected_v2", ("==", True)),
        ("crc_v12", "1.2 misses it", "corruption_detected_v12", ("==", False))),
    *_rows("clustering", "§5.1",
        ("lucky_efficiency", "helps a correlated pick",
         lambda r: r.case("sequential", "contiguous").efficiency, (">", 0.5)),
        ("lucky_bytes", "helps a correlated pick (B)",
         lambda r: r.case("sequential", "contiguous").bytes_moved,
         ("<", lambda r: 0.1 * _fresh(r))),
        ("fresh", "'but not by much' (B)",
         lambda r: abs(_fresh(r) - r.case("random", "random").bytes_moved),
         ("<", lambda r: 0.05 * _fresh(r))),
        ("fresh_efficiency", "'but not by much'",
         lambda r: r.case("sequential", "random").efficiency, ("<", 0.1)),
        ("object_bytes", "objects: tiny (B)", "object_bytes",
         ("<", lambda r: 0.05 * _fresh(r)))),
    *_rows("catalog-replication", "§4.2",
        ("central_read", "1 RTT (s)", "central_read", (">", 0.12)),
        ("replicated_read", "local (s)", "replicated_read", ("<", 0.01)),
        ("read_speedup", "local replica reads", "read_speedup", (">", 15)),
        ("write", "writes pay 1 RTT (s)", "replicated_write", (">", 0.12)),
        ("staleness", "~2 delays (s)", "staleness_window",
         (">", 0.0), ("<", 0.3))),
    *_rows("remote-access", "§2.1, §5.2",
        ("wan_penalty", "large WAN overheads", "wan_penalty_vs_replication",
         (">", 5)),
        ("lan", "fine on a LAN (s)", "lan_remote_access_s",
         ("<", lambda r: 0.2 * r.wan_remote_access_s)),
        ("lan_vs_replica", "fine on a LAN (s)", "lan_remote_access_s",
         ("<", lambda r: r.replicate_then_read_s))),
    *_rows("index", "§5.2",
        ("located", "one collective lookup", "located", ("==", lambda r: r.keys)),
        ("copies", "one collective lookup", "every_copy", ("==", True)),
        ("missing", "one collective diff", "missing", ("==", lambda r: r.absent)),
        ("round_trip", "the view serializes", "clone", ("==", lambda r: r.small))),
)


def measure(experiment: str, seed: int | None = None):
    """One run of a claimed experiment, at ``seed`` where it takes one."""
    run = global_index if experiment == "index" else EXPERIMENTS[experiment].run
    seeded = seed is not None and "seed" in inspect.signature(run).parameters
    return run(seed=seed) if seeded else run()


def evaluate(seed: int | None = None) -> list[tuple]:
    """(claim, measured, limits, ok) per row; each experiment runs once."""
    result = functools.cache(lambda experiment: measure(experiment, seed))
    return [(c, *c.check(result(c.experiment))) for c in CLAIMS]


def _show(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def report(rows: list[tuple]) -> bool:
    """Print every row; True when all of them hold."""
    held = sum(ok for *_, ok in rows)
    print_table(
        ["section", "claim", "paper", "measured", "bound", "ok"],
        [[c.section, c.id, c.paper, _show(measured),
          " and ".join(f"{op} {_show(limit)}" for op, limit in limits),
          "ok" if ok else "FAILED"] for c, measured, limits, ok in rows],
        title=f"paper claims: {held} of {len(rows)} hold")
    return held == len(rows)
