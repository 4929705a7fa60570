"""DESIGN.md's "When a process exists", pinned where it is cheap.

On the transfer-set scenario of ``tools/smoke.py`` (both pullers) and on
its routed reads (an 8-site RLS grid answering ``catalog.info``), every
process that its spawner waits on at its very next ``yield`` must be a
command — a call its caller may hold — or a leg that, in general, has
others in flight beside it.  A GridFTP command, a mover fetch, a
session table's dial or hang-up, a stage-in, a failover attempt or a
bus call made beneath a catalog or router command spawned only to be
waited on shows up here by name.
"""

import sys

import pytest

import smoke
from repro.simulation import kernel

#: where a process waited on at once may be spawned (the qualified name
#: of the function that spawned it): the commands, then the legs
COMMANDS = {
    "ServiceClient.call",
    "GdmpClient.publish",
    "GdmpClient.produce_and_publish",
    "GdmpClient.publish_set",
    "GdmpClient._replicate",
    "GdmpClient.replicate_set",
    "CatalogProxy._spawn_write",
    "CatalogProxy.publish",
    "CatalogProxy.publish_bulk",
    "CatalogProxy._cached_read",
    "CatalogProxy.info_bulk",
    "RlsCatalogProxy.add_replicas",
}
LEGS = {
    "GdmpServer._op_request_stage",     # one per file staged at a source
    "RlsCatalogProxy._wave",            # one per site asked
    "_TransferSet.close",               # one release per source
    "SessionTable.goodbyes",            # one QUIT per session of a set
}
#: nothing beneath these is ever a process its caller only waits on
BENEATH_A_COMMAND = (
    "GridFTPClient.",
    "DataMover.",
    "SessionTable.session",             # the data plane's one dial ...
    "SessionTable.redial",
    "SessionTable.done",                # ... and its one hang-up in place
    "StorageManager.ensure_on_disk",
    "failover_walk",
    "RlsCatalogProxy._ask_index",
)
#: a bus call made under one of these is the command's own round trip
CATALOG = ("CatalogProxy.", "RlsCatalogProxy.")


def awaited_at_once(monkeypatch, scenario):
    """Run ``scenario`` with ``Process`` construction wrapped; for every
    process its spawner waited on at its very next ``yield``, the
    qualified names of the running generator chain that spawned it,
    innermost (the spawning function) first."""
    born: list = []
    stacks: dict = {}
    awaited: list = []
    init, resume = kernel.Process.__init__, kernel.Process._resume

    def tracked_init(self, sim, generator, name=""):
        init(self, sim, generator, name)
        chain, frame = [], sys._getframe(1)
        while frame.f_code.co_filename == kernel.__file__:
            frame = frame.f_back        # out of Simulator.spawn
        while frame is not None and frame.f_code.co_filename != kernel.__file__:
            if not frame.f_code.co_name.startswith("<"):  # a comprehension
                chain.append(frame.f_code.co_qualname)
            frame = frame.f_back        # up to the resume that runs it
        born.append(self)
        stacks[self] = chain

    def tracked_resume(self, event):
        mark = len(born)
        resume(self, event)
        target = self._waiting_on
        if any(target is process for process in born[mark:]):
            awaited.append(stacks[target])

    monkeypatch.setattr(kernel.Process, "__init__", tracked_init)
    monkeypatch.setattr(kernel.Process, "_resume", tracked_resume)
    scenario()
    return awaited


@pytest.mark.parametrize("scenario", ["transfer set", "routed reads"])
def test_only_commands_and_legs_are_waited_on_at_once(monkeypatch, scenario):
    awaited = awaited_at_once(monkeypatch, smoke.EVENT_SCENARIOS[scenario])
    assert awaited, "the census saw nothing: its hooks are stale"
    problems = set()
    for chain in awaited:
        spawner = chain[0]
        if spawner not in COMMANDS | LEGS:
            problems.add(f"{spawner} is neither a command nor a leg")
        problems.update(
            f"{spawner} spawned beneath {caller}"
            for caller in chain[1:] if caller.startswith(BENEATH_A_COMMAND)
        )
        if spawner == "ServiceClient.call" and any(
                caller.startswith(CATALOG) for caller in chain):
            problems.add("a bus call spawned beneath a catalog command")
    assert not problems
