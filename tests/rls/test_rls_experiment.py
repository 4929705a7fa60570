"""EXP-RLS smoke: the gate experiment converges at test scale."""

from repro.experiments import rls


def test_exp_rls_smoke_converges():
    result = rls.run(
        sites=3, files=6, lookups_per_site=3,
        replicas_per_site=1, seed=2001,
    )
    assert result.converged, result.errors
    assert result.phantom_answers == 0
    assert result.exact_lookups == result.lookups
    assert result.replicas_made == 3
    assert result.staleness_window <= result.staleness_bound
    assert result.digest_compression > 1.0
    assert result.fingerprint


def test_exp_rls_campaign_reports_degradation():
    result = rls.run(
        sites=3, files=6, lookups_per_site=3,
        replicas_per_site=1, seed=2001, campaign="rli_blackhole",
    )
    assert result.converged, result.errors
    assert result.faults_injected > 0
    assert result.no_active_faults
    assert result.rli_unavailable > 0 or result.fallback_broadcasts > 0
    assert result.phantom_answers == 0


def test_a_phantom_seen_only_while_degraded_is_counted(monkeypatch):
    """The degraded wave's phantoms reach ``phantom_answers`` (the final
    wave's count used to overwrite them) and fail ``lookups_ok``."""
    real = rls._lookup_wave

    def haunted(grid, samples, require_exact, errors, label):
        performed, exact, phantoms = real(
            grid, samples, require_exact, errors, label
        )
        return performed, exact, phantoms + (label == "degraded")

    monkeypatch.setattr(rls, "_lookup_wave", haunted)
    result = rls.run(
        sites=3, files=6, lookups_per_site=3,
        replicas_per_site=1, seed=2001, campaign="rli_blackhole",
    )
    assert result.phantom_answers == 1
    assert not result.lookups_ok and not result.converged


def test_a_degraded_wave_that_goes_unanswered_fails_lookups(monkeypatch):
    real = rls._lookup_wave

    def deaf(grid, samples, require_exact, errors, label):
        if label == "degraded":
            samples = samples[1:]      # one lookup never answered
        return real(grid, samples, require_exact, errors, label)

    monkeypatch.setattr(rls, "_lookup_wave", deaf)
    result = rls.run(
        sites=3, files=6, lookups_per_site=3,
        replicas_per_site=1, seed=2001, campaign="rli_blackhole",
    )
    assert result.phantom_answers == 0
    assert not result.lookups_ok and not result.converged
    assert any("lookups answered under faults" in e for e in result.errors)
