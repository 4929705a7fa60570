"""DESIGN.md's "Telemetry" rule, pinned as text.

There is always a registry: a component given none records into one
that keeps nothing, so no module under ``src/repro`` asks whether it has
one.  And a plane's health-report section lives with the plane, handed
to the registry beside its collector, so ``telemetry/report.py`` names
no plane's metric family.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
REPORT = SRC / "telemetry" / "report.py"

#: a test for the absence of a registry
NO_REGISTRY = re.compile(r"metrics is (not )?None")
#: the families the weather, chunk and workload planes render themselves
PLANE_FAMILY = re.compile(r"weather\.|chunks\.|workload\.replicator")


def _lines(pattern, paths):
    return [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_no_module_asks_whether_it_was_given_a_registry():
    assert _lines(NO_REGISTRY, sorted(SRC.rglob("*.py"))) == []


def test_the_report_names_no_planes_families():
    assert _lines(PLANE_FAMILY, [REPORT]) == []
