"""GridFTP control-channel protocol: commands, replies, features.

The extension commands are the real ones: ``SBUF`` (set socket buffer,
RFC draft / GridFTP spec), ``OPTS RETR Parallelism=n`` (parallel streams),
``REST`` (restart offset), ``ERET``/``ESTO`` (partial transfer), ``SPAS``/
``SPOR`` (striped data channels), plus classic FTP verbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ProtocolError", "Command", "Reply", "FEATURES", "CONTROL_MESSAGE_SIZE"]

#: Bytes per control message on the wire (commands and replies are short).
CONTROL_MESSAGE_SIZE = 128

#: FEAT response of our server — the paper's feature list.
FEATURES = (
    "AUTH GSSAPI",
    "PARALLEL",
    "SBUF",
    "REST STREAM",
    "ERET",
    "ESTO",
    "SPAS",
    "SPOR",
    "MDTM",
    "SIZE",
    "PERF",
    "DCAU",
)

KNOWN_COMMANDS = {
    "AUTH",
    "ADAT",
    "USER",
    "PASS",
    "FEAT",
    "SBUF",
    "OPTS",
    "PASV",
    "SPAS",
    "PORT",
    "SPOR",
    "REST",
    "RETR",
    "STOR",
    "ERET",
    "ESTO",
    "SIZE",
    "MDTM",
    "CKSM",
    "DELE",
    "ABOR",
    "QUIT",
}


class ProtocolError(Exception):
    """Malformed command or protocol-violating sequence."""


@dataclass(frozen=True)
class Command:
    """One control-channel command."""

    verb: str
    argument: str = ""
    session: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verb not in KNOWN_COMMANDS:
            raise ProtocolError(f"unknown command verb {self.verb!r}")

    def __str__(self) -> str:
        return f"{self.verb} {self.argument}".strip()


@dataclass(frozen=True)
class Reply:
    """One control-channel reply: three-digit code plus text/payload."""

    code: int
    text: str = ""
    payload: Any = None

    @property
    def is_success(self) -> bool:
        return 200 <= self.code < 300

    @property
    def is_error(self) -> bool:
        return self.code >= 400

    def __str__(self) -> str:
        return f"{self.code} {self.text}"


# Common replies, named for readability at call sites.
def opening(text: str = "Opening data connection") -> Reply:
    """150: preliminary reply, data connection opening."""
    return Reply(150, text)


def ok(text: str = "Command okay", payload: Any = None) -> Reply:
    """200: command okay."""
    return Reply(200, text, payload)


def closing(payload: Any = None) -> Reply:
    """226: transfer complete, closing data connection."""
    return Reply(226, "Transfer complete", payload)


def aborted(text: str, payload: Any = None) -> Reply:
    """426: data connection closed, transfer aborted."""
    return Reply(426, text, payload)


def denied(text: str) -> Reply:
    """530: authentication/authorization failure."""
    return Reply(530, text)


def not_found(text: str) -> Reply:
    """550: requested file unavailable."""
    return Reply(550, text)


def bad_sequence(text: str) -> Reply:
    """503: command out of sequence (e.g. no session)."""
    return Reply(503, text)
