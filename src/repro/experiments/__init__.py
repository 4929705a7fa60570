"""Experiment harness: one module per figure / table / claim of the paper.

Every experiment exposes ``run(...)`` returning a plain data structure and
``report(result)`` printing the same rows/series the paper shows;
``python -m repro.experiments <name>`` prints the report.  ``EXPERIMENTS``
names them (DESIGN.md, "Experiment index", maps each to the paper), and
:mod:`repro.experiments.claims` is the table of the paper's numbers their
results are checked against (``python -m repro.experiments claims``).
"""

from repro.experiments import (  # noqa: F401
    buffer_sweep,
    catalog_bench,
    catalog_replication_bench,
    catalog_scale,
    chaos,
    chunks,
    clustering,
    figure5,
    figure6,
    gdmp_pipeline,
    legacy_comparison,
    object_vs_file,
    pipeline,
    remote_access,
    rls,
    server_overhead,
    staging,
    tuning_claims,
    weather,
    workload,
)

EXPERIMENTS = {
    "figure5": figure5,
    "figure6": figure6,
    "tuning": tuning_claims,
    "buffer": buffer_sweep,
    "objects": object_vs_file,
    "pipeline": pipeline,
    "server": server_overhead,
    "catalog": catalog_bench,
    "gdmp": gdmp_pipeline,
    "staging": staging,
    "legacy": legacy_comparison,
    "clustering": clustering,
    "catalog-replication": catalog_replication_bench,
    "catalog-scale": catalog_scale,
    "remote-access": remote_access,
    "chaos": chaos,
    "workload": workload,
    "rls": rls,
    "weather": weather,
    "chunks": chunks,
}

__all__ = ["EXPERIMENTS"]
