"""DESIGN.md's "One way to move a file", pinned as text.

Outside the GridFTP package itself, the data mover is the one thing that
holds a GridFTP conversation: every fetch, verified store and checksum
probe rides its session table.  Only the GDMP-1.2 baseline and the
Figure 5/6 testbed (the paper's own measurement path) dial a client
themselves.  Wiring a client up — building it, tuning its bus, failing
its pending calls on a crash — is not a conversation.

Between tape and disk there is one path as well: a site's storage
manager is the only caller of the MSS's ``stage_to_pool`` and
``migrate``, so every staging is in its in-flight table.
"""

import re
from pathlib import Path

from repro.gridftp.client import GridFTPClient

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: where a GridFTP command may be called
ALLOWED = ("gridftp/", "gdmp/data_mover.py", "gdmp/legacy.py",
           "experiments/testbed.py")
#: every command of the client library, called on a client reached as
#: ``ftp`` / ``self.ftp`` / ``mover.ftp`` or a site's ``gridftp_client``
COMMANDS = sorted(
    name for name, value in vars(GridFTPClient).items()
    if callable(value) and not name.startswith("_")
)
COMMAND_CALL = re.compile(
    r"(?:\bftp|\bgridftp_client)\.(?:" + "|".join(COMMANDS) + r")\("
)


def _calls(allowed: bool) -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(ALLOWED) != allowed:
            continue
        found.extend(
            f"{relative}:{number}: {line.strip()}"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if COMMAND_CALL.search(line)
        )
    return found


def test_the_pattern_still_sees_the_movers_own_commands():
    assert {"open_session", "close_session", "get", "put", "checksum",
            "delete", "session"} <= set(COMMANDS)
    assert any(call.startswith("gdmp/data_mover.py") for call in _calls(True))


def test_no_gridftp_command_is_called_outside_the_mover():
    assert _calls(False) == []


#: the one caller of the tape moves, and the program code searched for others
TAPE_CALLER = SRC / "gdmp" / "storage_manager.py"
PROGRAM = (SRC, ROOT / "tools", ROOT / "benchmarks", ROOT / "examples")
TAPE_CALL = re.compile(r"\.(?:stage_to_pool|migrate)\(")


def _tape_calls() -> dict[Path, list[str]]:
    found: dict[Path, list[str]] = {}
    for root in PROGRAM:
        for path in sorted(root.rglob("*.py")):
            lines = [
                f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
                for number, line in enumerate(path.read_text().splitlines(), 1)
                if TAPE_CALL.search(line)
            ]
            if lines:
                found[path] = lines
    return found


def test_the_storage_manager_is_the_one_path_to_tape():
    calls = _tape_calls()
    assert len(calls.pop(TAPE_CALLER)) == 2  # one stage, one migrate
    assert calls == {}
