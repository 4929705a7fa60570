#!/usr/bin/env bash
# CI gate: tier-1 tests (which include the recorded-figure determinism
# record and the netsim/catalog differential suites), the e2e benchmark
# harness smoke tests, the smoke gate (every campaign experiment twice
# per leg, the path and event budgets, two scenarios run back to back in
# one process, the recorded experiment output), every performance record
# at smoke size against its floors, the paper's claims table, and (when
# available) ruff.
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

echo "== smoke gate: convergence + determinism per leg, budgets, back-to-back runs, recorded output =="
python tools/smoke.py

echo "== performance records (smoke) + regression gates =="
python tools/perf_report.py --suite all --smoke --output - > /dev/null

echo "== paper claims: every row of repro.experiments.claims in its bound =="
python -m repro.experiments claims

if command -v ruff > /dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks tools
else
    echo "== ruff not installed; skipping lint =="
fi

echo "ci_check: all gates passed"
