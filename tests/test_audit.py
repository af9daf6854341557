import hashlib
import json
from fractions import Fraction

import pytest

from nstar import audit
from nstar.audit import (
    CLAIM_IDS,
    GUARANTEED_CLAIMS,
    UnknownClaimError,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    all_guaranteed_hold,
    audit_claim,
    audit_jacobi,
    reports_to_json,
    run_suite,
)
from nstar.polynomials import Polynomial, x
from nstar.starcore import ThetaConfig, star_n, star_n_stepwise


def test_claim_registry_covers_expected_ids():
    expected = {
        "distributivity-1", "distributivity-2", "distributivity-3",
        "associativity", "skew-symmetry", "jacobi-six-term", "jacobi-expansion",
        "conjugation-law", "theta-zero",
        "cf-coord-first", "cf-coord-middle", "cf-coord-last",
        "cf-two-coords-1", "cf-two-coords-2", "cf-two-coords-3", "cf-two-coords-4",
        "cf-complex-1", "cf-complex-2", "cf-complex-3", "cf-complex-4",
        "cf-complex-5", "cf-complex-6", "cf-complex-4-alt",
        "cf-nary-slot", "conj-xx-f-1", "conj-xx-f-2",
        "noncomm-witness-1", "noncomm-witness-2", "noncomm-witness-3",
        "omega-antisym", "omega-cyclic",
        "conj-inequality-1", "conj-inequality-2", "conj-inequality-3",
    }
    assert set(CLAIM_IDS) == expected
    assert set(GUARANTEED_CLAIMS) <= expected


def test_unknown_claim_raises():
    with pytest.raises(UnknownClaimError):
        audit_claim("no-such-claim", seed=1, trials=1)


def test_skew_symmetry_holds():
    rep = audit_claim("skew-symmetry", seed=3, trials=25)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.counterexample is None


def test_cf_coord_first_holds():
    rep = audit_claim("cf-coord-first", seed=3, trials=40)
    assert rep.verdict == VERDICT_HOLDS


def test_associativity_fails_with_recorded_candidate():
    rep = audit_claim("associativity", seed=5, trials=10)
    assert rep.verdict == VERDICT_FAILS
    assert rep.counterexample is not None
    assert rep.counterexample["oracle_confirmed"] is True
    # the canonical candidate itself: sides differ by i*theta_1*x2*x3
    cfg = ThetaConfig(3, (Fraction(1), Fraction(0), Fraction(0)))
    f1, g1, h1, g2, h2 = x(1, 3), x(2, 3), x(3, 3), x(3, 3), x(2, 3)
    lhs = star_n([star_n([f1, g1, h1], cfg), g2, h2], cfg)
    rhs = star_n([f1, g1, star_n([h1, g2, h2], cfg)], cfg)
    gap = x(2, 3) * x(3, 3)
    from nstar.scalars import ExactComplex
    assert rhs - lhs == gap * ExactComplex(0, 1)
    # confirmed by the naive operator oracle
    olhs = star_n_stepwise([star_n_stepwise([f1, g1, h1], cfg), g2, h2], cfg)
    orhs = star_n_stepwise([f1, g1, star_n_stepwise([h1, g2, h2], cfg)], cfg)
    assert orhs - olhs == gap * ExactComplex(0, 1)


def test_counterexample_is_recheckable():
    rep = audit_claim("associativity", seed=5, trials=5)
    ce = rep.counterexample
    n = ce["inputs"]["n"]
    theta = tuple(Fraction(t) for t in ce["inputs"]["theta"])
    cfg = ThetaConfig(n, theta)
    polys = [Polynomial.from_json_terms(n, rec["terms"]) for rec in ce["inputs"]["polys"]]
    f1, g1, h1, g2, h2 = polys
    lhs = star_n_stepwise([star_n_stepwise([f1, g1, h1], cfg), g2, h2], cfg)
    rhs = star_n_stepwise([f1, g1, star_n_stepwise([h1, g2, h2], cfg)], cfg)
    assert lhs != rhs
    assert str(lhs) == ce["lhs"]["text"]
    assert str(rhs) == ce["rhs"]["text"]


def test_shrunk_counterexample_still_fails():
    rep = audit_claim("cf-complex-1", seed=7, trials=10)
    assert rep.verdict == VERDICT_FAILS
    ce = rep.counterexample
    diff = Polynomial.from_json_terms(3, ce["difference"]["terms"])
    assert not diff.is_zero()


def test_jacobi_audits_record_verdicts():
    six, expansion = audit_jacobi(seed=11, trials=10)
    assert six.claim == "jacobi-six-term"
    assert expansion.claim == "jacobi-expansion"
    assert six.verdict in (VERDICT_HOLDS, VERDICT_FAILS)
    assert expansion.verdict in (VERDICT_HOLDS, VERDICT_FAILS)
    if six.verdict == VERDICT_FAILS:
        assert six.counterexample["oracle_confirmed"] is True


def test_jacobi_theta_zero_trivially_holds():
    from nstar.audit import ClaimInputs, _jacobi_six_sides, _jacobi_expansion_sides
    zero = (Fraction(0),) * 3
    polys = tuple(x(k % 3 + 1, 3) for k in range(5))
    inputs = ClaimInputs(3, zero, polys)
    lhs, rhs = _jacobi_six_sides(inputs, star_n)
    assert lhs == rhs
    lhs, rhs = _jacobi_expansion_sides(inputs, star_n)
    assert lhs == rhs


def test_noncomm_witness_found():
    rep = audit_claim("noncomm-witness-1", seed=13, trials=30)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.witness is not None
    diff = Polynomial.from_json_terms(3, rep.witness["difference"]["terms"])
    assert not diff.is_zero()
    assert rep.witness["oracle_confirmed"] is True


def _scaled_theta_engine(factor):
    """star_n evaluated at factor * theta."""
    def engine(factors, cfg):
        return star_n(factors, ThetaConfig(cfg.n, tuple(factor * t for t in cfg.theta)))
    return engine


def test_engine_oracle_disagreement_raises(monkeypatch):
    # the engine computes at 2*theta, the stepwise oracle at theta: the
    # counterexample the engine finds is not confirmed
    monkeypatch.setattr(audit, "star_n", _scaled_theta_engine(2))
    with pytest.raises(RuntimeError, match="oracle disagree"):
        audit_claim("cf-coord-first", seed=3, trials=40)


def test_witness_without_differing_inputs_fails(monkeypatch):
    monkeypatch.setattr(audit, "star_n", _scaled_theta_engine(0))
    rep = audit_claim("noncomm-witness-1", seed=13, trials=30)
    assert rep.verdict == VERDICT_FAILS
    assert rep.witness is None
    assert rep.counterexample == {"note": "no differing inputs found"}


def test_conj_inequality_witnesses():
    for idx in (1, 2, 3):
        rep = audit_claim(f"conj-inequality-{idx}", seed=17, trials=40)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.witness is not None


def test_omega_claims_hold():
    assert audit_claim("omega-antisym", seed=19, trials=200).verdict == VERDICT_HOLDS
    assert audit_claim("omega-cyclic", seed=19, trials=200).verdict == VERDICT_HOLDS


def test_run_suite_deterministic_and_complete():
    reports1 = run_suite(seed=42, trials=5)
    reports2 = run_suite(seed=42, trials=5)
    assert reports_to_json(reports1) == reports_to_json(reports2)
    assert [r.claim for r in reports1] == sorted(CLAIM_IDS)
    data = json.loads(reports_to_json(reports1))
    assert all(set(rec) == {"claim", "verdict", "trials", "seed", "corpus",
                            "counterexample", "witness"} for rec in data)
    digest = hashlib.sha256(reports_to_json(reports1).encode("utf-8")).hexdigest()
    assert digest == "9fcc6bdd4e16a1a886d2754c2abbabb671e310607acdb06761e5c55676b3cc0b"


def test_full_report_pinned():
    # the bytes `nstar verify --seed 42 --trials 100` writes
    report = reports_to_json(run_suite(seed=42, trials=100)) + "\n"
    digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
    assert digest == "b6cf6560081592cea6db6968a8b391dc9b29f6d16ec9f6dfe650fab1b2f7e7b3"


def test_run_suite_seed_changes_reports():
    r1 = run_suite(seed=1, trials=4)
    r2 = run_suite(seed=2, trials=4)
    assert reports_to_json(r1) != reports_to_json(r2)


def test_guaranteed_claims_hold():
    reports = run_suite(seed=0, trials=8)
    by_name = {r.claim: r for r in reports}
    for claim in GUARANTEED_CLAIMS:
        assert by_name[claim].verdict == VERDICT_HOLDS, claim
    assert all_guaranteed_hold(reports)


def test_trials_validation():
    with pytest.raises(ValueError):
        audit_claim("associativity", seed=1, trials=0)
    with pytest.raises(ValueError):
        run_suite(seed=1, trials=0)
