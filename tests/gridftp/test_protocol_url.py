import pytest

from repro.gridftp import Command, ProtocolError, Reply, parse_url
from repro.gridftp.url import DEFAULT_PORT


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


def test_parse_gsiftp_url():
    url = parse_url("gsiftp://cern.ch:2811/store/f1")
    assert url.host == "cern.ch"
    assert url.port == 2811
    assert url.path == "/store/f1"
    assert str(url) == "gsiftp://cern.ch:2811/store/f1"


def test_parse_default_port():
    assert parse_url("gsiftp://anl/x").port == DEFAULT_PORT


def test_parse_file_url():
    url = parse_url("file:///pool/f1")
    assert url.scheme == "file"
    assert url.path == "/pool/f1"
    assert str(url) == "file:///pool/f1"


@pytest.mark.parametrize(
    "bad",
    [
        "nota url",
        "http://cern.ch/x",
        "gsiftp://cern.ch",
        "gsiftp:///nohost",
        "gsiftp://cern.ch:abc/x",
        "file://relative",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_url(bad)
