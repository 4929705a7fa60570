#!/usr/bin/env bash
# CI gate: tier-1 tests (which include the recorded-output determinism
# record and the netsim/catalog differential suites), the e2e benchmark
# harness smoke tests, an engine microbench smoke run, the telemetry
# exporter smoke gate, the chaos fault-injection gate, the workload
# standing-pipeline gate, and (when available) ruff.
#
#   tools/ci_check.sh
#
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== e2e benchmark harness: five workloads at smoke size =="
python -m pytest -q benchmarks/e2e

echo "== determinism: back-to-back simulations in one process =="
python tools/determinism_check.py

echo "== engine microbench (smoke) =="
python benchmarks/bench_engine_microbench.py --smoke > /dev/null
python tools/perf_report.py --smoke --output - > /dev/null

echo "== telemetry: exporter shape + determinism (smoke) =="
python tools/telemetry_smoke.py
python tools/perf_report.py --telemetry --smoke --output - > /dev/null

echo "== flow scale (smoke) + regression gate =="
python benchmarks/bench_flow_scale.py --smoke > /dev/null
python tools/perf_report.py --flow-scale --smoke --output - > /dev/null

echo "== catalog scale (smoke) + regression gate =="
python benchmarks/bench_catalog_scale.py --smoke > /dev/null
python tools/perf_report.py --catalog --smoke --output - > /dev/null

echo "== chaos: fault-injection convergence + determinism (smoke) =="
python tools/chaos_smoke.py

echo "== workload: standing-pipeline convergence + determinism (smoke) =="
python tools/workload_smoke.py
python benchmarks/bench_workload.py --smoke > /dev/null
python tools/perf_report.py --workload --smoke --output - > /dev/null

echo "== rls: two-tier location convergence + determinism (smoke) =="
python tools/rls_smoke.py
python benchmarks/bench_rls.py --smoke > /dev/null
python tools/perf_report.py --rls --smoke --output - > /dev/null

echo "== weather: selection quality + degradation + determinism (smoke) =="
python tools/weather_smoke.py
python tools/perf_report.py --weather --smoke --output - > /dev/null

echo "== chunks: erasure-coded durability + repair economics (smoke) =="
python tools/chunks_smoke.py
python benchmarks/bench_chunks.py --smoke > /dev/null
python tools/perf_report.py --chunks --smoke --output - > /dev/null

if command -v ruff > /dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks tools
else
    echo "== ruff not installed; skipping lint =="
fi

echo "ci_check: all gates passed"
