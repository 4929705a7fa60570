"""The one ``check`` and the one ``write`` of tools/perf_report.py, on
synthetic records (no bench is run, except the 50 ms telemetry one)."""

import copy
import json

import pytest

import perf_report
from perf_report import SUITES, TOLERANCE, Bound, Suite, check

#: a healthy full-mode rls ``current``: the row has floors, a full-only
#: hard bound, a ceiling, a relative bound and a chaos leg
RLS = {
    "mode": "full",
    "aggregate_speedup": 10.0,
    "two_tier_per_s": 9_000.0,
    "candidate_per_s": 50_000.0,
    "false_positive_rate": 0.01,
    "rli": {"digest_compression": 40.0},
    "central": {"info_per_s": 10_000.0},
    "chaos": {"converged": True},
}
CANDIDATE_FLOOR = SUITES["rls"].floors["full"]["candidate_per_s"]


@pytest.mark.parametrize("change, expected", [
    ({}, []),
    # a floor's metric missing from the record
    ({"candidate_per_s": None}, ["candidate_per_s: missing"]),
    # below floor x (1 - TOLERANCE) / just inside the tolerance
    ({"candidate_per_s": CANDIDATE_FLOOR * (1 - TOLERANCE) * 0.99},
     ["candidate_per_s: 3.168e+04 is >20% below"]),
    ({"candidate_per_s": CANDIDATE_FLOOR * (1 - TOLERANCE) * 1.01}, []),
    # the 8x hard bound: inside the floor's tolerance, still a failure —
    # but only in full mode (smoke runs 4 sites; its floor is 2.0)
    ({"aggregate_speedup": 7.9},
     ["7.9 breaks the hard bound aggregate_speedup >= 8 (full mode)"]),
    ({"aggregate_speedup": 7.9, "mode": "smoke"}, []),
    # a ceiling: the bloom's false-positive rate
    ({"false_positive_rate": 0.06},
     ["0.06 breaks the hard bound false_positive_rate <= 0.05"]),
    # a bound on a nested metric, and one relative to another metric
    ({"rli": {"digest_compression": 4.0}},
     ["4 breaks the hard bound rli.digest_compression > 5"]),
    ({"central": {"info_per_s": 20_000.0}},
     ["9000 breaks the hard bound two_tier_per_s > 0.5 x "
      "central.info_per_s"]),
    ({"rli": {}}, ["rli.digest_compression > 5: missing"]),
    # a leg that did not converge, or is absent
    ({"chaos": {"converged": False}}, ["chaos leg did not converge"]),
    ({"chaos": None}, ["chaos leg did not converge"]),
])
def test_check_on_synthetic_rls_records(change, expected):
    current = copy.deepcopy(RLS)
    for key, value in change.items():
        if value is None:
            del current[key]
        else:
            current[key] = value
    failures = check(SUITES["rls"], {"current": current})
    assert len(failures) == len(expected), failures
    for failure, fragment in zip(failures, expected):
        assert fragment in failure


def test_an_ungated_suite_checks_clean_whatever_it_measured():
    assert check(SUITES["netsim"], {"current": {"micro": []}}) == []


def test_the_telemetry_series_budget():
    """The registry's cardinality is bounded: a 49th series fails."""
    suite = SUITES["telemetry"]
    assert check(suite, {"current": {"mode": "full", "metric_series": 48}}) == []
    [failure] = check(suite, {"current": {"mode": "smoke", "metric_series": 49}})
    assert "49 breaks the hard bound metric_series < 49" in failure


@pytest.mark.parametrize("name", list(SUITES))
def test_the_committed_record_passes_its_row(name):
    """Every floor, hoist, bound path and leg a row names exists in the
    committed full-mode record, and the recorded numbers clear the gate."""
    suite = SUITES[name]
    record = json.loads((perf_report.REPO_ROOT / suite.output).read_text())
    if suite.section is not None:
        record = record[suite.section]
    assert check(suite, record) == []
    for metric, path in suite.hoist:
        assert record["current"][metric] == perf_report.dig(
            record["current"], path)


def fake_suite(tmp_path, **fields):
    return Suite(
        measure=lambda smoke: {"current": {
            "mode": "smoke" if smoke else "full", "rate": 5.0,
            "deep": {"rate": 7.0},
        }},
        output="BENCH_fake.json",
        protocol={"scenario": "none"},
        summary=perf_report.lines("rate {rate:.1f}, deep {deep[rate]:.0f}"),
        **fields,
    )


def test_main_builds_writes_summarises_and_gates_one_suite(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(perf_report, "REPO_ROOT", tmp_path)
    monkeypatch.setitem(SUITES, "fake", fake_suite(
        tmp_path,
        hoist=(("deep_rate", "deep.rate"),),
        floors={"full": {"deep_rate": 10.0}, "smoke": {"deep_rate": 7.0}},
        bounds=(Bound("rate", ">", 4),),
    ))
    # smoke: nothing written, floor met
    assert perf_report.main(["--suite", "fake", "--smoke"]) == 0
    assert not (tmp_path / "BENCH_fake.json").exists()
    assert "  rate 5.0, deep 7" in capsys.readouterr().out
    # full: the committed file is regenerated, and the full floor fails
    assert perf_report.main(["--suite", "fake"]) == 1
    record = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert sorted(record) == [
        "baseline", "current", "generated_by", "protocol",
    ]
    assert record["current"]["deep_rate"] == 7.0
    assert record["baseline"] == {
        "recorded": True, "full": {"deep_rate": 10.0},
        "smoke": {"deep_rate": 7.0},
    }
    assert "hard bound rate > 4" in record["protocol"]["baseline"]
    assert "REGRESSION: fake: deep_rate" in capsys.readouterr().err
    # --output - prints the record instead
    assert perf_report.main(
        ["--suite", "fake", "--smoke", "--output", "-"]) == 0
    assert '"generated_by": "tools/perf_report.py --suite fake"' in (
        capsys.readouterr().out)


def test_a_section_suite_merges_into_its_file(tmp_path, monkeypatch):
    monkeypatch.setattr(perf_report, "REPO_ROOT", tmp_path)
    monkeypatch.setitem(
        SUITES, "fake", fake_suite(tmp_path, section="fake_section"))
    target = tmp_path / "BENCH_fake.json"
    target.write_text(json.dumps({"current": {"kept": True}}))
    assert perf_report.main(["--suite", "fake"]) == 0
    merged = json.loads(target.read_text())
    assert merged["current"] == {"kept": True}
    assert merged["fake_section"]["current"]["rate"] == 5.0
    # an explicit --output gets the bare record, as before
    other = tmp_path / "other.json"
    assert perf_report.main(["--suite", "fake", "--output", str(other)]) == 0
    assert "fake_section" not in json.loads(other.read_text())


def test_a_file_owner_keeps_the_sections_merged_into_its_file(
        tmp_path, monkeypatch):
    # --suite netsim used to rewrite BENCH_netsim.json whole and drop the
    # flow_scale section another suite had merged into it
    monkeypatch.setattr(perf_report, "REPO_ROOT", tmp_path)
    monkeypatch.setitem(SUITES, "owner", fake_suite(tmp_path))
    monkeypatch.setitem(
        SUITES, "tenant", fake_suite(tmp_path, section="tenant_section"))
    target = tmp_path / "BENCH_fake.json"
    target.write_text(json.dumps({
        "current": {"stale": True},
        "tenant_section": {"current": {"kept": True}},
        "nobody_owns_this": 1,
    }))
    assert perf_report.main(["--suite", "owner"]) == 0
    rewritten = json.loads(target.read_text())
    assert rewritten["current"]["rate"] == 5.0
    assert rewritten["tenant_section"] == {"current": {"kept": True}}
    assert "nobody_owns_this" not in rewritten


def test_suite_is_required_and_all_takes_no_output_file(tmp_path, capsys):
    with pytest.raises(SystemExit):
        perf_report.main(["--smoke"])
    with pytest.raises(SystemExit):
        perf_report.main(["--catalog", "--smoke"])
    with pytest.raises(SystemExit):
        perf_report.main(["--suite", "all", "--smoke", "--output",
                          str(tmp_path / "x.json")])
    capsys.readouterr()


def test_the_telemetry_suite_end_to_end(capsys):
    assert perf_report.main(
        ["--suite", "telemetry", "--smoke", "--output", "-"]) == 0
    out = capsys.readouterr().out
    record, _ = json.JSONDecoder().raw_decode(out)
    assert sorted(record) == ["current", "generated_by", "protocol"]
    assert record["current"]["mode"] == "smoke"
    assert "overhead ratio:" in out
