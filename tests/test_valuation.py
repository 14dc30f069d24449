"""Prime classification, the valuation law, and denominator profiles."""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain

import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import (
    hypergeometric_valuations,
    reference_c,
    reference_denominator_profile,
    reference_law,
    reference_unreduced,
    sample_triples,
)
from vvmf3.arith import INFINITY, int_valuation, is_prime, prime_factors, valuation_p
from vvmf3.mde import _diagonal, build_mde, component_series, minimal_vector, phi_j
import vvmf3.mde
import vvmf3.valuation
from vvmf3.reps import enumerate_level, ubd_criterion, validate_triple
from vvmf3.valuation import (
    FormulaInapplicable,
    PrimeCase,
    ValuationReport,
    _delta_for_lead,
    _LAW_CACHE_SIZE,
    _form_key,
    _forms,
    _hits,
    _law_rows,
    classify_prime,
    denominator_profile,
    predicted_valuation,
    verify_formula,
    z_n_value,
)
from vvmf3.qseries import QExpansion

# Thresholds above which each small prime escapes the bounded part of the
# level; primes > 7 escape at exponent 1.
_ESCAPE = {2: 8, 3: 6, 5: 2, 7: 2}


def test_z_n_anchor_values() -> None:
    t = validate_triple(1, 2, 4, 7)
    assert z_n_value(t, 1, 0) == 504
    assert z_n_value(t, 1, 1) == 9912
    assert z_n_value(validate_triple(1, 2, 7, 10), 1, 0) == 2016


def test_z_n_validation() -> None:
    t = validate_triple(1, 2, 4, 7)
    with pytest.raises(ValueError):
        z_n_value(t, 1, -1)
    with pytest.raises(ValueError):
        z_n_value(t, 3, 0)


def test_z_n_matches_scaled_indicial_shift() -> None:
    # z_n is N^3 times the first shift polynomial evaluated at lead/N + n.
    for t in sample_triples(6, level_max=60):
        sys = build_mde(t, 2)
        for lead in (t.A, t.B, t.C):
            for n in range(6):
                expected = t.N**3 * phi_j(sys, 1, Fraction(lead, t.N) + n)
                assert expected == z_n_value(t, lead, n)
                if n:
                    assert (expected - z_n_value(t, lead, 0)) % (24 * t.N * n) == 0


# (triple, prime) -> (case_id, subcase, predicted, lead, delta)
CLASSIFIER_PINS = {
    ((1, 3, 7, 11), 11): (1, None, 0, 1, -1),
    ((0, 1, 6, 7), 7): (2, None, 0, 1, -1),
    ((1, 2, 46, 49), 7): (3, "a", 1, 2, -1),
    ((1, 3, 45, 49), 7): (3, "b", 0, 1, -2),
    ((1, 2, 17, 20), 5): (4, None, 0, 1, -1),
    ((1, 2, 7, 10), 5): (4, None, 0, 1, -1),
    ((5, 8, 12, 25), 5): (5, None, 1, 5, -1),
    ((1, 3, 5, 9), 3): (6, None, 1, 1, -1),
    ((2, 5, 20, 27), 3): (7, None, 3, 2, 0),
    ((1, 2, 5, 32), 2): (8, None, 4, 2, -1),
}


@pytest.mark.parametrize("key", sorted(CLASSIFIER_PINS))
def test_classifier_covered_pins(key) -> None:
    (a, b, c, n), p = key
    case_id, subcase, predicted, lead, delta = CLASSIFIER_PINS[key]
    case = classify_prime(validate_triple(a, b, c, n), p)
    assert case.prime == p
    assert (case.case_id, case.subcase) == (case_id, subcase)
    assert case.predicted_z_valuation == predicted
    assert case.lead == lead
    assert case.delta == delta
    assert case.lead is not None
    assert case.to_json_dict()["case"] == case_id


def test_classifier_window_constancy() -> None:
    for ((a, b, c, n), p), (_, _, predicted, lead, _) in CLASSIFIER_PINS.items():
        t = validate_triple(a, b, c, n)
        assert all(
            int_valuation(z_n_value(t, lead, k), p) == predicted for k in range(51)
        )


UNCOVERED_PINS = [
    ((1, 2, 4, 7), 7),  # 7 does not divide the exponent product, 49 ∤ 7
    ((5, 7, 8, 20), 5),  # 5 divides the product but 25 ∤ 20
    ((1, 2, 5, 16), 2),  # 32 ∤ 16
    ((0, 1, 2, 3), 3),  # omega = 2 and 9 ∤ 3
]


@pytest.mark.parametrize("tup,p", UNCOVERED_PINS)
def test_classifier_uncovered_pins(tup, p) -> None:
    case = classify_prime(validate_triple(*tup), p)
    assert case.case_id is None
    assert case.lead is None
    assert case.predicted_z_valuation is None
    assert case.to_json_dict()["case"] == "not covered"


def test_classifier_matches_periodic_oracle() -> None:
    # z_n is an integer polynomial in n, so z_n mod p^(pred+1) has period
    # p^(pred+1) and one period decides nu_p(z_n) == pred for every n.
    seen = set()
    for level in range(1, 61):
        for t in enumerate_level(level):
            for p, _ in prime_factors(level):
                case = classify_prime(t, p)
                if case.case_id is None:
                    assert case.lead is None and case.delta is None
                    continue
                seen.add(case.case_id)
                pred = case.predicted_z_valuation
                assert pred < int_valuation(24 * level, p)
                period = range(p ** (pred + 1))
                lead = next(
                    (e for e in (t.A, t.B, t.C)
                     if all(int_valuation(z_n_value(t, e, n), p) == pred for n in period)),
                    None,
                )
                assert case.lead == lead, (t, p)
                assert case.delta == pred - int_valuation(level, p)
    assert seen == set(range(1, 9))


def test_classifier_validation() -> None:
    t = validate_triple(1, 2, 4, 7)
    with pytest.raises(ValueError):
        classify_prime(t, 6)
    with pytest.raises(ValueError):
        classify_prime(t, 13)


def test_three_omega_case_constant_is_three() -> None:
    # Every level-27 triple with 3 | omega has nu_3(z_n) constant at 3 for
    # every labeling; the selected lead therefore always verifies.
    triples = [t for t in enumerate_level(27) if t.omega % 3 == 0]
    assert len(triples) == 18
    for t in triples:
        case = classify_prime(t, 3)
        assert case.case_id == 7
        assert case.predicted_z_valuation == 3
        assert case.lead is not None
        for lead in (t.A, t.B, t.C):
            vals = {int_valuation(z_n_value(t, lead, k), 3) for k in range(21)}
            assert vals == {3}


def test_predicted_valuation_anchors() -> None:
    t = validate_triple(1, 3, 7, 11)
    assert [predicted_valuation(t, 11, 1, n) for n in range(1, 9)] == [
        -1, -2, -3, -4, -5, -6, -7, -8,
    ]
    assert predicted_valuation(t, 11, 1, 11) == -12


def test_predicted_valuation_strictly_decreasing_and_negative() -> None:
    t = validate_triple(1, 3, 7, 11)
    values = [predicted_valuation(t, 11, 1, n) for n in range(1, 41)]
    assert all(v < 0 for v in values)
    assert all(later < earlier for earlier, later in zip(values, values[1:]))


def test_predicted_valuation_inapplicability() -> None:
    # Hypothesis failure: predicted constant 1 with nu_7(49) = 2 gives 2 <= 2.
    with pytest.raises(FormulaInapplicable, match="hypothesis"):
        predicted_valuation(validate_triple(1, 2, 46, 49), 7, 2, 1)
    with pytest.raises(FormulaInapplicable, match="hypothesis"):
        predicted_valuation(validate_triple(2, 5, 20, 27), 3, 2, 1)
    with pytest.raises(FormulaInapplicable, match="no covered case"):
        predicted_valuation(validate_triple(1, 2, 4, 7), 7, 1, 1)
    # Lead 0 of this covered triple has 7 | z_0, so the hypothesis fails.
    with pytest.raises(FormulaInapplicable, match="hypothesis"):
        predicted_valuation(validate_triple(0, 1, 6, 7), 7, 0, 1)
    with pytest.raises(ValueError):
        predicted_valuation(validate_triple(1, 3, 7, 11), 11, 1, 0)
    with pytest.raises(ValueError, match=r"lead exponent 2 is not one of \(1, 3, 7\)"):
        predicted_valuation(validate_triple(1, 3, 7, 11), 11, 2, 5)


def test_delta_for_lead_reads_the_case_lead(monkeypatch) -> None:
    # classify_prime chose case.lead by nu_p(z_0) = case.predicted_z_valuation,
    # so _delta_for_lead evaluates z_0 only for another lead.  On every pair
    # with N <= 60 and each of its leads it returns what the hypothesis test
    # on a recomputed nu_p(z_0) and nu_p(N) gives.
    def recomputed(t, p, lead):
        vz, nu_level = int_valuation(z_n_value(t, lead, 0), p), int_valuation(t.N, p)
        return (vz - nu_level, nu_level) if nu_level > 2 * vz else None

    pairs = [(t, classify_prime(t, p)) for N in range(2, 61) for t in enumerate_level(N)
             for p, _ in prime_factors(N)]
    calls = []

    def spy(t, lead, n):
        calls.append(lead)
        return z_n_value(t, lead, n)

    monkeypatch.setattr(vvmf3.valuation, "z_n_value", spy)
    own = 0
    for t, case in pairs:
        if case.lead is None:
            continue
        for lead in (t.A, t.B, t.C):
            calls.clear()
            try:
                got = _delta_for_lead(t, case, lead)
            except FormulaInapplicable:
                got = None
            assert calls == ([] if lead == case.lead else [lead]), (t, case, lead)
            assert got == recomputed(t, case.prime, lead), (t, case, lead)
            own += lead == case.lead
    assert own > 5_000


@given(
    st.sampled_from((2, 3, 5, 7, 11, 13)),
    st.integers(0, 4),
    st.integers(1, 300),
    st.integers(0, 12),
    st.integers(-300, 300),
    st.integers(1, 600),
)
@example(2, 0, 1, 0, 0, 600)  # the factor k
@example(3, 0, 1, 10, 1, 600)  # beta = 3^10, above every term's valuation
@example(5, 2, 3, 1, 2, 100)  # nu_p(beta) < nu_p(alpha): a constant column
@example(7, 1, 2, 3, -1, 400)  # negative beta: 14k - 343
@example(11, 0, 121, 0, -1, 300)  # alpha k + beta < 0 at k = 0 mod 11^2 only
def test_progression_valuations_match_direct_valuations(p, i, u, j, v, n) -> None:
    alpha, beta = p**i * u, v * p**j
    # alpha k + beta = 0 at an integer k = -beta / alpha in 1..n has no finite valuation.
    assume(beta % alpha or not 1 <= -beta // alpha <= n)
    key = _form_key(alpha, beta, p, int_valuation(alpha, p))
    inc = [-key[0]] * n
    for hits in _hits(key, p, n):
        for i in hits:
            inc[i] -= 1
    direct = [int_valuation(alpha * k + beta, p) for k in range(1, n + 1)]
    assert inc == [-v for v in direct]
    assert sum(map(len, _hits(key, p, n))) == sum(direct) - key[0] * n


@pytest.fixture
def cold_law():
    """_law_rows with an empty cache, emptied again afterwards: a test that
    counts the law's builds or patches its internals sees every column built."""
    _law_rows.cache_clear()
    yield _law_rows
    _law_rows.cache_clear()


def test_law_matches_reference_law(cold_law) -> None:
    # Every covered pair with N <= 60 at n = 100 (the lead of classify_prime,
    # its delta), and every lead at every prime of sampled triples at prime
    # power levels, where the progressions run deepest.  Twice: from a cleared
    # cache, then with it warm, so rows shared by a key must fit every pair.
    pairs = [
        (t, p, case.lead, case.delta, 100)
        for t in (t for N in range(2, 61) for t in enumerate_level(N))
        for p, _ in prime_factors(t.N)
        for case in [classify_prime(t, p)]
        if case.lead is not None
    ]
    for N in (27, 81, 125, 243, 343, 512):
        for t in sample_triples(12, level_max=N, level_min=N):
            for p, _ in prime_factors(t.N):
                pairs += [(t, p, lead, -1, 300) for lead in (t.A, t.B, t.C)]
    # The shortest columns and the deepest, for every lead of the pins of
    # tools/verify_timing.py, each lead with its delta = nu_p(z_0) - nu_p(N).
    for tup, p in (((1, 3, 7, 11), 11), ((0, 1, 26, 27), 3), ((0, 1, 127, 512), 2),
                   ((1, 2, 340, 343), 7)):
        t = validate_triple(*tup)
        pairs += [(t, p, lead, int_valuation(z_n_value(t, lead, 0), p) - int_valuation(t.N, p), n)
                  for lead in (t.A, t.B, t.C) for n in (1, 2, 1000)]
    assert len(pairs) > 10_000
    expected = []
    for t, p, lead, delta, n in pairs:
        column = reference_law(p, delta + int_valuation(6 * t.N, p), reference_c(t, lead, n))
        expected.append(tuple(zip(range(1, n + 1), column, column)))
    for _ in ("cleared", "warm"):
        for (t, p, lead, delta, n), rows in zip(pairs, expected):
            forms = _forms(t, lead, p, int_valuation(t.N, p))
            assert _law_rows(p, delta, n, forms) == rows, (t, p, lead)
    assert cold_law.cache_info().hits > len(pairs)


def test_verify_formula_reports_from_cleared_and_warm_cache(cold_law) -> None:
    # Every criterion pair with N <= 60: each report built from a cleared
    # cache equals the one the sweep builds with the cache warm, whose 9,308
    # reports share 61 row tuples.  The cache never holds more than its bound,
    # and predicted_valuation, which counts the law's progressions, leaves it
    # as it is, also at n = 10^12.
    pairs = [(t, p) for N in range(2, 61) for p in ubd_criterion(N) for t in enumerate_level(N)]
    assert len(pairs) == 9_308
    cleared = []
    for t, p in pairs:
        cold_law.cache_clear()
        cleared.append(verify_formula(t, p))
    cold_law.cache_clear()
    warm = []
    for t, p in pairs:
        warm.append(verify_formula(t, p))
        assert cold_law.cache_info().currsize <= _LAW_CACHE_SIZE
    assert warm == cleared
    assert all(r.verdict == "formula-verified" for r in warm)
    info = cold_law.cache_info()
    assert (info.hits, info.misses) == (9_247, 61)
    assert len({id(r.rows) for r in warm}) == 61
    t = validate_triple(1, 3, 7, 11)
    for n in range(1, 401):
        assert predicted_valuation(t, 11, 1, n) == -n - n // 11 - n // 121
    n = 10**12
    assert predicted_valuation(t, 11, 1, n) == -n - sum(n // 11**e for e in range(1, 12))
    assert cold_law.cache_info() == info


def test_predicted_valuation_counts_the_law_rows(cold_law, monkeypatch) -> None:
    # The two readers of _hits tied: the count of predicted_valuation equals
    # the column _law_rows walks, on every lead where the hypothesis holds at
    # every prime of every level N <= 60, at short and long n.  classify_prime
    # is pure; memoised here, the 219,600 calls time the count, not the
    # classifier.
    applicable = []
    for t in (t for N in range(2, 61) for t in enumerate_level(N)):
        for p, _ in prime_factors(t.N):
            case = classify_prime(t, p)
            for lead in (t.A, t.B, t.C):
                try:
                    delta, nu_level = _delta_for_lead(t, case, lead)
                except FormulaInapplicable:
                    continue
                applicable.append((t, p, lead, delta, _forms(t, lead, p, nu_level)))
    assert len(applicable) == 36_600
    # Forms with a constant valuation v > 0, which the count takes as v * n.
    assert any(v for *_, forms in applicable for v, _, _ in forms)
    monkeypatch.setattr(vvmf3.valuation, "classify_prime", lru_cache(None)(classify_prime))
    for m in (1, 2, 7, 49, 121, 200):
        for t, p, lead, delta, forms in applicable:
            assert predicted_valuation(t, p, lead, m) == _law_rows(p, delta, m, forms)[m - 1][1], \
                (t, p, lead, m)


def test_predicted_valuation_matches_verify_formula_to_400() -> None:
    t = validate_triple(1, 3, 7, 11)
    assert [predicted_valuation(t, 11, 1, n) for n in range(1, 401)] == [
        predicted for _, _, predicted in verify_formula(t, 11, 400).rows
    ]


def test_verify_formula_verified_runs() -> None:
    report = verify_formula(validate_triple(1, 3, 7, 11), 11, n_max=60)
    assert report.verdict == "formula-verified"
    assert report.applicable and report.reason is None
    assert report.lead == 1 and report.case.case_id == 1
    assert report.rows[0] == (1, -1, -1)
    assert report.rows[10] == (11, -12, -12)
    assert report.rows[-1] == (60, -65, -65)
    assert all(observed == predicted for _, observed, predicted in report.rows)

    report = verify_formula(validate_triple(1, 3, 45, 49), 7, n_max=40)
    assert report.verdict == "formula-verified"
    assert report.rows[0] == (1, -2, -2)
    assert report.rows[-1] == (40, -85, -85)


def test_verify_formula_inapplicable_reasons() -> None:
    report = verify_formula(validate_triple(1, 2, 4, 7), 7, n_max=20)
    assert report.verdict == "inapplicable"
    assert not report.applicable
    assert "no covered case" in report.reason
    assert all(predicted is None for _, _, predicted in report.rows)
    assert all(observed >= 0 for _, observed, _ in report.rows)

    report = verify_formula(validate_triple(2, 5, 20, 27), 3, n_max=20)
    assert report.verdict == "inapplicable"
    assert "hypothesis" in report.reason

    with pytest.raises(ValueError):
        verify_formula(validate_triple(1, 2, 4, 7), 5, n_max=10)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max"):
            verify_formula(validate_triple(1, 3, 7, 11), 11, n_max=n_max)


def test_valuation_report_json() -> None:
    report = verify_formula(validate_triple(1, 3, 7, 11), 11, n_max=5)
    data = report.to_json_dict()
    assert data["verdict"] == "formula-verified"
    assert data["case"]["case"] == 1
    assert data["rows"][0] == {"n": 1, "observed": -1, "predicted": -1}
    assert data["triple"]["N"] == 11

    # A vanishing coefficient serializes its valuation as "inf".
    synthetic = ValuationReport(
        triple=report.triple,
        prime=11,
        lead=1,
        rows=((1, INFINITY, None),),
        verdict="inapplicable",
        case=report.case,
        applicable=False,
        reason="synthetic",
    )
    assert synthetic.to_json_dict()["rows"][0]["observed"] == "inf"


def test_ubd_criterion_pins() -> None:
    assert ubd_criterion(22) == [11]
    assert ubd_criterion(48) == []
    assert ubd_criterion(512) == [2]
    assert ubd_criterion(343) == [7]
    assert ubd_criterion(1) == []
    bounded = 2**8 * 3**6 * 5**2 * 7**2
    assert ubd_criterion(bounded) == []
    # Case 7 predicts nu_3(z) = 3, so p = 3 needs nu_3(N) >= 7.
    assert ubd_criterion(3**5) == ubd_criterion(3**6) == []
    assert ubd_criterion(3**7) == [3]
    assert ubd_criterion(bounded * 13) == [13]
    with pytest.raises(ValueError):
        ubd_criterion(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_ubd_criterion_matches_factorization(n: int) -> None:
    expected = [p for p, e in prime_factors(n) if e > _ESCAPE.get(p, 0)]
    assert ubd_criterion(n) == expected


def test_denominator_profile_integral() -> None:
    t = validate_triple(1, 2, 4, 7)
    comp = component_series(build_mde(t, 40), 1, 40)
    profile = denominator_profile(comp)
    assert profile.verdict == "all-integral"
    assert profile.stats == ()
    assert profile.window == 40


def test_denominator_profile_unbounded_pattern() -> None:
    t = validate_triple(1, 3, 7, 11)
    comp = component_series(build_mde(t, 100), 1, 100)
    profile = denominator_profile(comp)
    assert profile.verdict == "decreasing-unbounded-pattern"
    by_prime = {s.prime: s for s in profile.stats}
    stats11 = by_prime[11]
    assert stats11.min_valuation == -109
    assert stats11.strictly_decreasing
    assert stats11.last_new_min_index == 100
    # The deepest observed valuation matches the law at the window edge.
    assert stats11.min_valuation == predicted_valuation(t, 11, 1, 100)
    assert not by_prime[2].strictly_decreasing


def test_denominator_profile_bounded() -> None:
    series = QExpansion(
        exponent=Fraction(0),
        coeffs=(Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)),
    )
    assert denominator_profile(series).verdict == "bounded-in-window"

    # Deep minimum early in the window does not count as a decreasing pattern.
    early = QExpansion(
        exponent=Fraction(0),
        coeffs=(Fraction(1), Fraction(1, 8)) + (Fraction(1),) * 30,
    )
    assert denominator_profile(early).verdict == "bounded-in-window"


def test_denominator_profile_synthetic_unbounded() -> None:
    series = QExpansion(
        exponent=Fraction(0),
        coeffs=tuple(Fraction(1, 2**k) for k in range(12)),
    )
    profile = denominator_profile(series)
    assert profile.verdict == "decreasing-unbounded-pattern"
    assert profile.stats[0].prime == 2
    assert profile.stats[0].new_min_count == 12


def test_denominator_profile_boundary_of_late_minimum() -> None:
    # T = 30: the last new minimum must fall at n >= 30 - max(1, 3) = 27.
    for last, verdict in ((27, "decreasing-unbounded-pattern"), (26, "bounded-in-window")):
        series = QExpansion(
            exponent=Fraction(0),
            coeffs=tuple(Fraction(1, 2 ** min(k, last)) for k in range(31)),
        )
        profile = denominator_profile(series)
        assert profile.verdict == verdict
        assert profile.stats[0].last_new_min_index == last


# Coefficients for the profile oracle: zeros, numerators with positive
# valuations (8, 27) and either sign, and denominators over small primes.
_profile_coefficient = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from((1, -1, 8, 27, -8, -27, 12, 250)).map(Fraction),
    st.builds(
        lambda a, i, j, k: Fraction(a, 2**i * 3**j * 5**k),
        st.integers(-300, 300),
        st.integers(0, 12),
        st.integers(0, 6),
        st.integers(0, 3),
    ),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**4),
)

# Runs of +-1/2^k whose exponent k rises and falls as a walk.
_walk = st.lists(st.tuples(st.integers(-2, 3), st.booleans()), max_size=40).map(
    lambda steps: [
        Fraction(-1 if neg else 1, 2 ** abs(k))
        for k, (_, neg) in zip(accumulate(step for step, _ in steps), steps)
    ]
)


@given(st.lists(_profile_coefficient, max_size=8), _walk, st.lists(_profile_coefficient, max_size=8))
@example([Fraction(8)], [], [])
@example([Fraction(1, 4)], [], [])
@example([Fraction(27), Fraction(0), Fraction(9), Fraction(1, 3)], [], [])
@example([Fraction(8), Fraction(0), Fraction(4)], [Fraction(1, 2), Fraction(1, 8), Fraction(1, 4)], [])
def test_denominator_profile_matches_dense_reference(head, walk, tail) -> None:
    assume(head + walk + tail)
    series = QExpansion(0, head + walk + tail)
    assert denominator_profile(series) == reference_denominator_profile(series)


def test_denominator_profile_matches_dense_reference_on_components() -> None:
    systems = (build_mde(t, 40) for N in range(1, 21) for t in enumerate_level(N))
    for sys in chain(systems, [build_mde(validate_triple(1, 3, 7, 11), 300)]):
        for comp in minimal_vector(sys).components:
            assert denominator_profile(comp) == reference_denominator_profile(comp)


def test_denominator_profile_matches_hypergeometric_minima() -> None:
    # At the first ten primes p >= 5 not dividing N, the running minimum of
    # nu_p(a(n)) is that of the 3F2 column, which reads no series: where the
    # column goes negative the profile has its minimum, its number of new
    # minima and the index of the last, and elsewhere no denominator at p.
    T = 60
    pairs = skipped = negative = 0
    for t in (t for N in range(1, 13) for t in enumerate_level(N)):
        primes = [p for p in range(5, 100) if is_prime(p) and t.N % p][:10]
        for lead, comp in zip((t.A, t.B, t.C), minimal_vector(build_mde(t, T)).components):
            stats = {s.prime: s for s in denominator_profile(comp).stats}
            for p in primes:
                column = hypergeometric_valuations(t, lead, p, T)
                if column is None:
                    skipped += 1
                    continue
                pairs += 1
                running = list(accumulate(column, min))
                new_mins = [0] + [n for n in range(1, T + 1) if running[n] < running[n - 1]]
                if running[-1] >= 0:
                    assert p not in stats, (t, lead, p)
                    continue
                negative += 1
                s = stats[p]
                assert (s.min_valuation, s.new_min_count, s.last_new_min_index) \
                    == (running[-1], len(new_mins), new_mins[-1]), (t, lead, p)
    assert (pairs, skipped, negative) == (4240, 350, 1430)


# Beyond N <= 30: the exact path of cases 3a, 7 and 8 where the law is
# inapplicable, and the law's column where it applies with shift > 0
# (case 6 at 54, 5 at 125, 3a at 343, 8 at 512, 6 and 7 at 2187).
MODULAR_PINS = [
    (0, 1, 7, 32), (0, 1, 48, 49), (1, 2, 46, 49), (1, 3, 45, 49),
    (0, 1, 26, 54), (1, 4, 22, 54), (0, 1, 15, 64), (0, 1, 48, 98),
    (1, 2, 46, 98), (1, 3, 45, 98), (0, 1, 124, 125), (1, 2, 122, 125),
    (1, 2, 340, 343), (0, 1, 127, 512), (0, 1, 2186, 2187), (1, 4, 2182, 2187),
]


def test_verify_formula_rows_match_exact_recursion(monkeypatch) -> None:
    # At every prime of every level N <= 30, covered or not, and of the pins:
    # the rows against rows built from the exact recursion, and the observed
    # column against the reduced Fractions.  Every applicable pair reports
    # the law's column: no component_series call and no c_k built.
    T = 60
    triples = [t for big_n in range(2, 31) for t in enumerate_level(big_n)]
    triples += [validate_triple(*tup) for tup in MODULAR_PINS]
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vvmf3.valuation, "component_series",
                        spy("component_series", component_series))
    monkeypatch.setattr(vvmf3.mde, "_diagonal", spy("_diagonal", _diagonal))
    shifted, tight = set(), set()
    for t in triples:
        mde = build_mde(t, T)
        exact = {}  # per lead
        for p, _ in prime_factors(t.N):
            calls.clear()
            report = verify_formula(t, p, n_max=T)
            made = list(calls)
            if report.lead not in exact:
                exact[report.lead] = (
                    reference_unreduced(mde, report.lead, T),
                    component_series(mde, report.lead, T).coeffs,
                )
            (anum, c), coeffs = exact[report.lead]
            e = int_valuation(6 * t.N, p)
            shift = report.case.delta + e if report.applicable else None
            expected = [
                (n, int_valuation(anum[n], p) - d, n * shift - d if shift is not None else None)
                for n, d in enumerate(accumulate(int_valuation(ck, p) for ck in c[1:]), 1)
            ]
            assert list(report.rows) == expected, (t, p)
            assert [obs for _, obs, _ in report.rows] == [
                valuation_p(coeffs[n], p) for n in range(1, T + 1)
            ]
            if shift is None:
                continue
            assert report.verdict == "formula-verified"
            assert made == [], (t, p)
            if shift > 0:
                shifted.add(report.case.case_id)
            if e == 2 * shift:
                tight.add(((t.A, t.B, t.C, t.N), p))
    assert shifted == {3, 5, 6, 7, 8}
    # e = 2 shift, where the proof needs p | P_2, at p = 2 and at p = 3.
    assert {((0, 1, 127, 512), 2), ((0, 1, 26, 27), 3)} <= tight


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize(
    "tup, p", [((1, 3, 7, 11), 11), ((0, 1, 26, 27), 3)], ids=["level-11", "level-27"]
)
def test_frobenius_at_the_shortest_orders(tup, p, n_max) -> None:
    # n_max = 1 and 2, the shortest windows, at shift 0 and at e = 2 shift
    # (level 27, where the proof needs 3 | P_2): the rows against the exact
    # numerators and the reduced Fractions.
    t = validate_triple(*tup)
    report = verify_formula(t, p, n_max=n_max)
    assert report.verdict == "formula-verified"
    anum, c = reference_unreduced(build_mde(t, n_max), report.lead, n_max)
    coeffs = component_series(build_mde(t, n_max), report.lead).coeffs
    shift = report.case.delta + int_valuation(6 * t.N, p)
    assert list(report.rows) == [
        (n, valuation_p(coeffs[n], p), n * shift - d)
        for n, d in enumerate(accumulate(int_valuation(ck, p) for ck in c[1:]), 1)
    ]
    assert [int_valuation(a, p) for a in anum] == [n * shift for n in range(n_max + 1)]


def _forbid_system(monkeypatch) -> None:
    # An applicable pair reports the law's column: no system, no series and
    # no c_k is built.
    def boom(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return fail

    for module, name in ((vvmf3.valuation, "build_mde"),
                         (vvmf3.valuation, "component_series"),
                         (vvmf3.mde, "_diagonal")):
        monkeypatch.setattr(module, name, boom(name))


@pytest.mark.parametrize(
    "tup, p, n_max",
    [
        ((1, 3, 7, 11), 11, 1000),
        # nu_11(6N) = 2 and shift 0.
        ((0, 1, 120, 121), 11, 100),
    ],
    ids=["level-11", "level-121"],
)
def test_verify_formula_stays_on_modular_path(monkeypatch, tup, p, n_max) -> None:
    _forbid_system(monkeypatch)
    report = verify_formula(validate_triple(*tup), p, n_max=n_max)
    assert report.verdict == "formula-verified"


def test_verify_formula_stays_on_modular_path_with_shift(monkeypatch) -> None:
    # Shift 2 and e = nu_3(6N) = 4 = 2 shift, where the proof needs 3 | P_2.
    _forbid_system(monkeypatch)
    report = verify_formula(validate_triple(0, 1, 26, 27), 3, n_max=60)
    assert report.verdict == "formula-verified"


def test_applicable_verify_formula_builds_no_c_k(monkeypatch) -> None:
    # No c_k is built, at shift 0 (p = 11) or at shift 2 (p = 3).
    built = []

    def spy(t, w, u):
        built.append(w)
        return _diagonal(t, w, u)

    monkeypatch.setattr(vvmf3.mde, "_diagonal", spy)
    assert verify_formula(validate_triple(1, 3, 7, 11), 11, n_max=100).verdict \
        == "formula-verified"
    assert verify_formula(validate_triple(0, 1, 26, 27), 3, n_max=60).verdict \
        == "formula-verified"
    assert built == []


@pytest.mark.parametrize("tup, p", [((1, 3, 7, 11), 11), ((0, 1, 26, 54), 3)])
def test_predicted_valuation_matches_verify_formula_column(tup, p) -> None:
    # One law behind both: the same column; the level-54 pin has
    # shift = nu_3(z_0) + nu_3(6) = 2.
    t = validate_triple(*tup)
    report = verify_formula(t, p, n_max=60)
    assert report.verdict == "formula-verified"
    assert [predicted_valuation(t, p, report.lead, n) for n in range(1, 61)] == [
        predicted for _, _, predicted in report.rows
    ]


def test_denominator_profile_validation() -> None:
    series = QExpansion(exponent=Fraction(0), coeffs=(Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        denominator_profile(series.truncate(5))
    with pytest.raises(ValueError):
        denominator_profile(series.truncate(-1))
    assert denominator_profile(series.truncate(0)).window == 0
    assert denominator_profile(series).window == 1
    assert denominator_profile(series.truncate(1)).verdict == "all-integral"


def test_classifier_agrees_with_criterion_on_samples() -> None:
    # Every criterion prime lands in a covered case whose formula hypothesis
    # holds: at sampled levels, at every triple of level 243 = 3^5 (where
    # 3 | omega would need nu_3(N) >= 7), at sampled levels 3^7, 2 * 3^7, and
    # at 5^3, 7^3 and 2^9, where 5, 7 and 2 first enter the criterion.
    triples = sample_triples(8, level_max=60) + enumerate_level(243)
    for level in (125, 343, 512, 2187, 4374):
        triples += sample_triples(40, level_max=level, level_min=level)
    for t in triples:
        for p in ubd_criterion(t.N):
            case = classify_prime(t, p)
            assert case.case_id is not None
            assert case.lead is not None
            assert int_valuation(t.N, p) > 2 * case.predicted_z_valuation
            assert case.delta < 0
