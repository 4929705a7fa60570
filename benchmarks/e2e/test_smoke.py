"""All five workloads at smoke size, through the benchmark's own harness.

Run as ``pytest benchmarks/e2e`` (tier-1 ``testpaths`` is unchanged).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import RATIO_BASES  # noqa: E402


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_prints_every_metric_and_passes_its_output_check(name, capsys):
    for trace, spec in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        record = run.measure(
            name, seed=2001, seconds=0.0, trace=trace, smoke=True,
            min_repeats=1,
        )
        assert record["correct"], record["errors"]
        assert record["failed"] == 0 < record["attempted"]
        assert set(record["metrics"]) == set(spec)
        for metric, entry in record["metrics"].items():
            assert entry["unit"] == spec[metric]["unit"]
        run.print_record(record)
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert set(json.loads(last)) == {
            "correct", "attempted", "failed", "metrics",
        }
        if not trace:
            assert all(m["value"] > 0 for m in record["metrics"].values())


def test_every_ratio_names_a_base_that_is_printed():
    for metric, entry in run.PER_LAYER.items():
        if entry["unit"] == "ratio":
            assert RATIO_BASES[metric] in run.PER_LAYER


def test_benchmark_json_names_the_workloads_and_one_path():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in run.SPEC["end_to_end"])
