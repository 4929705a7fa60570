import pytest

from repro.gridftp import Command, ProtocolError, Reply


def test_command_validation():
    Command("RETR", "/path")
    with pytest.raises(ProtocolError):
        Command("FROB", "x")


def test_command_str():
    assert str(Command("SBUF", "1048576")) == "SBUF 1048576"


def test_reply_classification():
    assert Reply(226, "").is_success and not Reply(226, "").is_error
    assert Reply(426, "").is_error and not Reply(426, "").is_success
    assert Reply(550, "").is_error
    assert str(Reply(230, "ok")) == "230 ok"

