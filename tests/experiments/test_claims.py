"""The paper's claims table: every row holds at the default seeds, and a
result outside a bound fails its row and the ``claims`` command."""

import dataclasses
import io
from contextlib import redirect_stdout

import pytest

from repro.experiments import EXPERIMENTS, claims
from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def results():
    """Each claimed experiment's result, run once at its default seed."""
    names = dict.fromkeys(c.experiment for c in claims.CLAIMS)
    return {name: claims.measure(name) for name in names}


@pytest.fixture
def table(results, monkeypatch):
    """Evaluate the table against (possibly doctored) ``results``."""
    doctored = dict(results)
    monkeypatch.setattr(claims, "measure", lambda name, seed=None: doctored[name])
    return doctored


def test_every_row_names_an_experiment_and_is_unique():
    ids = [c.id for c in claims.CLAIMS]
    assert len(ids) == len(set(ids)) == 101
    assert {c.experiment for c in claims.CLAIMS} <= {*EXPERIMENTS, "index"}


def test_every_claim_holds_at_the_default_seeds(table):
    failed = [(c.id, measured, limits)
              for c, measured, limits, ok in claims.evaluate() if not ok]
    assert failed == []


def test_a_doctored_result_fails_its_rows_and_the_command(table):
    pipeline = table["pipeline"]
    table["pipeline"] = dataclasses.replace(
        pipeline, pipelined_time=pipeline.sequential_time)
    failed = [c.id for c, *_, ok in claims.evaluate() if not ok]
    assert failed == ["pipeline.speedup", "pipeline.faster"]
    printed = io.StringIO()
    with redirect_stdout(printed):
        assert main(["claims"]) == 1
    assert "paper claims: 99 of 101 hold" in printed.getvalue()
    assert printed.getvalue().count("FAILED") == 2


def test_a_bound_relative_to_another_measurement_keeps_its_strictness():
    past_3 = next(c for c in claims.CLAIMS if c.id == "figure6.25mb.9_streams")
    curve = {3: 20.0, 9: 21.0}
    assert past_3.check({25: curve}) == (21.0, [("<", 20.0 * 1.1)], True)
    curve[9] = 20.0 * 1.1  # on the bound: ``<`` stays strict
    assert past_3.check({25: curve})[2] is False
