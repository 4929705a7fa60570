"""Every wire operation has a sender (DESIGN.md, "The operation table").

A row of the ``catalog.*`` operation table, or a ``task.*`` / ``rli.*``
operation the queue service / the Replica Location Index registers,
stays only while code in ``src/repro`` sends it: a string literal
naming it — ``"info_bulk"`` as the catalog proxy spells it, or
``"catalog.info_bulk"`` — somewhere other than the table itself and the
registration.  An operation nobody sends still costs a row, a proxy
stub, a router override and a backend method; it fails here by name.
"""

import ast
from pathlib import Path

from repro.catalog.operations import OPERATIONS
from repro.gdmp import DataGrid, GdmpConfig
from repro.rls.rli import RliService
from repro.workload.queue import TaskQueueService

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TABLE = SRC / "catalog" / "operations.py"


def _literals() -> set[str]:
    """Every string constant in ``src/repro`` outside the operation table
    and outside the arguments of a ``register(...)`` call."""
    found: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        if path == TABLE:
            continue
        tree = ast.parse(path.read_text())
        registering = {
            id(node)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "register"
            for arg in call.args
            for node in ast.walk(arg)
        }
        found.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in registering
        )
    return found


def _registered(service, prefix: str) -> list[str]:
    """The ``prefix`` operations ``service`` registers on a server."""
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    server = grid.site("cern").request_server
    service(server)
    return sorted(op for op in server._handlers if op.startswith(prefix))


def test_every_catalog_operation_has_a_sender():
    sent = _literals()
    assert [
        name for name in OPERATIONS
        if name not in sent and f"catalog.{name}" not in sent
    ] == []


def test_every_task_operation_has_a_sender():
    operations = _registered(TaskQueueService, "task.")
    assert {"task.submit", "task.claim", "task.wait"} <= set(operations)
    sent = _literals()
    assert [op for op in operations if op not in sent] == []


def test_every_rli_operation_has_a_sender():
    operations = _registered(RliService, "rli.")
    assert {"rli.push_digest", "rli.lookup_bulk"} <= set(operations)
    sent = _literals()
    assert [op for op in operations if op not in sent] == []
