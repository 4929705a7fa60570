"""Tests for the experiment harness CLI and registry."""

import dataclasses
import functools
import io
from contextlib import redirect_stdout

from repro.experiments import EXPERIMENTS, chaos, rls
from repro.experiments.__main__ import main
from repro.experiments.common import format_table
from repro.experiments.scaffold import Verdict


def test_registry_modules_expose_run_and_report():
    for name, module in EXPERIMENTS.items():
        assert callable(module.run), name
        assert callable(module.report), name
        # the CLI is the only entry point: no per-experiment main()
        assert not hasattr(module, "main"), name


def test_cli_runs_a_cheap_experiment():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["server"])
    output = buffer.getvalue()
    assert code == 0
    assert "EXP-OBJ3" in output
    assert "=== server ===" in output


def test_cli_rejects_unknown_experiment():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["figure7"])
    assert code == 2
    assert "unknown experiment" in buffer.getvalue()


def test_cli_multiple_names():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["server", "staging"])
    output = buffer.getvalue()
    assert code == 0
    assert "=== server ===" in output and "=== staging ===" in output


def test_cli_telemetry_flags_export_files(tmp_path):
    import json

    metrics_path = tmp_path / "metrics.json"
    chrome_path = tmp_path / "trace.json"
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([
            "staging",
            f"--metrics-json={metrics_path}",
            f"--trace-chrome={chrome_path}",
            "--report",
        ])
    assert code == 0
    snapshot = json.loads(metrics_path.read_text())
    assert "gridftp.bytes_sent" in snapshot
    trace = json.loads(chrome_path.read_text())
    assert trace["traceEvents"]
    assert "grid health report" in buffer.getvalue()


def test_cli_telemetry_flags_ignored_by_unsupporting_experiments():
    # the figure sweeps don't take telemetry keywords; flags must not crash
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["server", "--report"])
    assert code == 0
    assert "=== server ===" in buffer.getvalue()


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def test_cli_rejects_an_unknown_campaign_before_running_anything():
    code, output = run_cli("rls", "--campaign=meteor")
    assert code == 2
    assert "unknown campaign 'meteor' for rls" in output
    assert "rli_blackhole, digest_loss" in output
    assert "===" not in output
    # a campaign must be known to every named experiment that has any
    code, output = run_cli("chaos", "workload", "rls", "--campaign=link_flap")
    assert code == 2 and "for rls" in output and "===" not in output


def test_cli_chaos_without_a_campaign_runs_all_four(monkeypatch):
    ran = []
    monkeypatch.setattr(
        chaos, "run", lambda campaign, seed=2001: ran.append(campaign)
    )
    monkeypatch.setattr(chaos, "report", lambda result: None)
    assert run_cli("chaos")[0] == 0
    assert ran == list(chaos.CAMPAIGNS) and len(ran) == 4
    del ran[:]
    assert run_cli("chaos", "--campaign=mss_stall")[0] == 0
    assert ran == ["mss_stall"]


def test_cli_exits_1_when_a_campaign_did_not_converge(monkeypatch):
    failed = Verdict(seed=2001, campaign="", faults_injected=0,
                     no_active_faults=True, fingerprint="", errors=("lost",))
    monkeypatch.setattr(rls, "run", lambda seed=2001: failed)
    monkeypatch.setattr(rls, "report", lambda result: None)
    assert run_cli("rls")[0] == 1
    monkeypatch.setattr(
        rls, "run", lambda seed=2001: dataclasses.replace(failed, errors=()))
    assert run_cli("rls")[0] == 0


def test_cli_flags_reach_run_under_its_own_keywords(monkeypatch):
    seen = {}
    real = rls.run

    @functools.wraps(real)
    def spy(**kwargs):
        seen.update(kwargs)
        return real(lookups_per_site=2, replicas_per_site=1, **kwargs)

    monkeypatch.setattr(rls, "run", spy)
    code, output = run_cli(
        "rls", "--sites=3", "--files=6", "--seed=7", "--requests=9"
    )
    assert code == 0
    # --files is rls.run's ``files``; --requests is not rls's, so dropped;
    # no campaign named: the fault-free leg, once
    assert seen == {"sites": 3, "files": 6, "seed": 7}
    assert output.count("EXP-RLS — seed 7, 3 sites") == 1
    assert "CONVERGED" in output


def test_format_table_alignment_and_floats():
    text = format_table(
        ["name", "value"],
        [["a", 1.234], ["long-name", 10]],
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.23" in text
    assert "long-name" in text


def test_format_table_empty_rows():
    text = format_table(["col"], [])
    assert "col" in text
