"""The smoke gate's own logic, on scripted suites: every kind of problem
is reported and turns the exit code to 1."""

import itertools
import json
from types import SimpleNamespace

import pytest

import smoke


def scripted(**overrides):
    """A campaign experiment module whose every run returns the same
    healthy verdict, except for ``overrides`` (a callable is called with
    the campaign)."""
    calls = []

    def run(campaign="", seed=0, size=0):
        calls.append((campaign, seed, size))
        fields = dict(
            campaign=campaign, converged=True, errors=(),
            faults_injected=3 if campaign else 0,
            fingerprint="x" * 40, depth=7,
        )
        for key, value in overrides.items():
            fields[key] = value(campaign) if callable(value) else value
        return SimpleNamespace(**fields)

    return SimpleNamespace(CAMPAIGNS={"boom": None}, run=run, calls=calls)


def gate(module, asserts=(), names=("fake",), checks=None):
    suite = smoke.Suite(
        module, dict(size=5), asserts=asserts,
        summary=lambda r: f"depth {r.depth}",
    )
    return smoke.main(list(names), suites={"fake": suite},
                      checks=checks or {})


def test_healthy_suite_runs_every_leg_twice_and_prints_lengths(capsys):
    module = scripted()
    assert gate(module) == 0
    assert module.calls == [
        ("", smoke.SEED, 5), ("", smoke.SEED, 5),
        ("boom", smoke.SEED, 5), ("boom", smoke.SEED, 5),
    ]
    out = capsys.readouterr().out
    assert "fake/fault-free: converged twice, depth 7, fingerprints " \
           "identical (40 bytes)" in out
    assert "fake/boom: converged twice, depth 7, 3 faults, " in out


def test_required_campaign_means_no_fault_free_leg():
    module = scripted()
    plain = module.run
    module.run = lambda campaign, seed=0, size=0: plain(campaign, seed, size)
    assert gate(module) == 0
    assert [call[0] for call in module.calls] == ["boom", "boom"]


serial = itertools.count()


@pytest.mark.parametrize("overrides, asserts, expected", [
    (dict(fingerprint=lambda campaign: f"run {next(serial)}"), (),
     "fake/fault-free: run fingerprints differ"),
    (dict(faults_injected=0), (),
     "fake/boom/run1: no faults were injected"),
    (dict(converged=False, errors=("f.db: not on disk at anl",)), (),
     "fake/boom/run2: did not converge: f.db: not on disk at anl"),
    (dict(), ((("boom",), lambda r: r.depth > 7, "too shallow"),),
     "fake/boom/run1: too shallow"),
    (dict(), ((None, lambda r: r.depth > 7, "too shallow"),),
     "fake/fault-free/run1: too shallow"),
])
def test_each_problem_is_reported_and_fails_the_gate(
        capsys, overrides, asserts, expected):
    assert gate(scripted(**overrides), asserts) == 1
    out = capsys.readouterr().out
    assert "smoke: FAILED" in out
    assert f"  - {expected}" in out


def test_an_assertion_only_applies_to_its_legs(capsys):
    asserts = ((("other",), lambda r: False, "never checked"),)
    assert gate(scripted(), asserts) == 0


def test_named_checks_run_beside_suites_and_can_fail(capsys):
    checks = {"budget": lambda: ["budget: 9 requests (budget 3)"]}
    assert gate(scripted(), names=("budget",), checks=checks) == 1
    assert "  - budget: 9 requests (budget 3)" in capsys.readouterr().out
    assert gate(scripted(), names=("fake", "budget"),
                checks={"budget": lambda: []}) == 0


def test_run_twice_names_the_part_that_differs_and_asks_the_shape_checks(
        capsys):
    leaked = itertools.count()  # outlives a run, as a module global does

    def leaky():
        return {"ids": [f"req-{next(leaked)}"], "text": "a\nb\n"}

    assert smoke.run_twice("fake", leaky, lambda parts: ["bad shape"]) == [
        "fake: ids differs between back-to-back runs: @@ -2 +2 @@ "
        '-  "req-0" +  "req-1"',
        "fake: bad shape",
    ]
    assert smoke.run_twice("fake", lambda: {"text": "a\nb\n"}) == []
    assert "fake: two runs in one process byte-identical in text" in \
        capsys.readouterr().out


def test_exporter_shape_checks_report_what_is_malformed():
    events = [
        {"ph": "X", "pid": 1, "name": "gdmp:call", "ts": 0},
        {"ph": "s", "pid": 1, "name": "flow", "id": "7"},
        {"ph": "M", "pid": 1},
    ]
    assert smoke.chrome_shape_problems(
        {"chrome_trace": json.dumps({"traceEvents": events})}
    ) == [
        "X event 0 lacks ts/dur",
        "event 2 lacks 'name'",
        "flow arrows do not pair up (s ids != f ids)",
        "no process_name metadata events",
        "no span names containing 'gridftp:'",
        "no span names containing 'catalog.'",
    ]
    assert smoke.chrome_shape_problems({"chrome_trace": "{}"}) == [
        "traceEvents missing or empty"]
    assert smoke.snapshot_problems({"snapshot": {
        "b": {"children": [{"labels": {"site": "z"}},
                           {"labels": {"site": "a"}}]},
        "a": {"children": []},
    }}) == [
        "metric family names are not sorted",
        "children of 'b' are not label-sorted",
        "family 'a' has no children",
    ]
    assert smoke.snapshot_problems({"snapshot": {}}) == [
        "metrics snapshot is empty"]


def test_the_event_budget_is_the_measured_count_plus_a_tenth(capsys):
    assert smoke.check_event_budget() == []
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(smoke.EVENTS_PER_REQUEST)
    for line, (name, budget) in zip(lines, smoke.EVENTS_PER_REQUEST.items()):
        assert f"event budget: {name}: " in line
        events, requests = (
            int(word) for word in line.split() if word.isdigit()
        )
        assert events / requests <= budget <= 1.1 * events / requests + 0.05


def test_the_object_census_is_the_measured_ratio_plus_a_tenth(capsys):
    assert smoke.check_object_census() == []
    line = capsys.readouterr().out.strip()
    assert line.startswith("object census: ")
    tracked, stored = (int(word) for word in line.split() if word.isdigit())
    per_stored = tracked / stored
    assert per_stored <= smoke.TRACKED_PER_STORED <= 1.1 * per_stored + 0.0002


def test_the_directory_census_is_the_measured_ratio_plus_a_tenth(capsys):
    assert smoke.check_directory_census() == []
    line = capsys.readouterr().out.strip()
    assert line.startswith("directory census: ")
    tracked, entries, traced = [
        int(word) for word in line.split() if word.isdigit()
    ][:3]
    per_entry = tracked / entries
    assert per_entry <= smoke.TRACKED_PER_ENTRY <= 1.1 * per_entry + 0.0002
    # the bytes budget is measured first in a process; here earlier
    # tests have grown the table of interned strings, which takes ~80 B
    # an entry off the count
    bytes_per_entry = traced / entries
    assert (
        bytes_per_entry <= smoke.TRACED_PER_ENTRY
        <= 1.1 * bytes_per_entry + 100
    )


def test_unknown_name_is_rejected_with_the_known_ones(capsys):
    assert gate(scripted(), names=("fake", "nope")) == 2
    out = capsys.readouterr().out
    assert "unknown suite/check: nope" in out and "fake" in out


def test_every_real_suite_has_legs_and_params_its_run_accepts():
    import inspect

    from repro.experiments.scaffold import legs

    for name, suite in smoke.SUITES.items():
        accepted = inspect.signature(suite.module.run).parameters
        assert set(suite.params) <= set(accepted), name
        for applies_to, _, _ in suite.asserts:
            assert applies_to is None or set(applies_to) <= set(
                legs(suite.module)), name
    assert sum(len(legs(s.module)) for s in smoke.SUITES.values()) == 19


def test_wall_derived_mask_hits_exactly_the_six_recorded_lines():
    recorded = smoke.RECORDED.read_text(encoding="utf-8").splitlines()
    masked = [line for line in recorded if smoke.WALL_DERIVED.match(line)]
    assert len(masked) == 6
    assert sum("wall time (s)" in line for line in masked) == 3
    assert sum("sustained requests/s (wall)" in line for line in masked) == 1


def test_the_engine_keeps_one_flow_table_for_a_whole_leg(capsys):
    assert smoke.check_table_builds() == []
    line = capsys.readouterr().out.strip()
    assert line.startswith("table builds: 1 flow table(s) for ")


def test_an_event_store_is_written_one_extend_per_chunk(capsys):
    assert smoke.check_store_runs() == []
    line = capsys.readouterr().out.strip()
    assert line.startswith("store runs: 40 Container.extend and 0 Container.append")
