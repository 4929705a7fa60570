"""Every option has a setter (DESIGN.md, "Settings are what callers set").

A field of the configuration dataclasses below stays a field only while
some call under ``src/repro``, ``tools/`` or ``benchmarks/`` passes it by
keyword to that class — ``TieredSpec(t1_count=3)``, not a test.  A value
no experiment, tool or benchmark sets is a module constant beside the
code that uses it (or a ``ClassVar``, as ``WeatherConfig.bins`` is): a
field nobody sets still costs a check, a docstring and the branch only a
non-default value could reach.  Such a field fails here by name.

``GdmpConfig.disk_capacity`` and ``TestbedParams`` are outside the rule
for now: tests size disks with the one and build lossless testbeds with
the other, though no experiment, tool or benchmark sets either.  They
are left for a later change.
"""

import ast
import dataclasses
from pathlib import Path

from repro.chunks.runtime import ChunkConfig
from repro.netsim.tcp import TcpParams
from repro.netsim.tiered import TieredSpec
from repro.observatory.station import WeatherConfig
from repro.rls.digest import DigestConfig
from repro.rls.runtime import RlsConfig
from repro.services.resilience import ResilienceConfig
from repro.workload.arrivals import ArrivalProfile

ROOT = Path(__file__).resolve().parents[2]
CALLERS = (ROOT / "src" / "repro", ROOT / "tools", ROOT / "benchmarks")

CONFIGS = (
    WeatherConfig, RlsConfig, DigestConfig, ChunkConfig, ResilienceConfig,
    ArrivalProfile, TieredSpec, TcpParams,
)


def _passed() -> set[tuple[str, str]]:
    """``(callee, keyword)`` for every keyword argument of every call in
    the callers' files; the callee is the called name or attribute."""
    found: set[tuple[str, str]] = set()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                callee = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                found.update(
                    (callee, keyword.arg) for keyword in call.keywords
                    if keyword.arg is not None
                )
    return found


def test_every_option_is_set_by_a_caller():
    passed = _passed()
    assert [
        f"{config.__name__}.{field.name}"
        for config in CONFIGS
        for field in dataclasses.fields(config)
        if (config.__name__, field.name) not in passed
    ] == []


def test_the_rule_sees_a_set_option():
    passed = _passed()
    assert ("TieredSpec", "t1_count") in passed
    assert ("WeatherConfig", "ewma_alpha") in passed
