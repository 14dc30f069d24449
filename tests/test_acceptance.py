"""Acceptance suite: ten exact end-to-end checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.  Every comparison is exact rational or integer equality; there
are no tolerances anywhere in this file.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import brute_force_level, g_series, sample_triples
from vvmf3.arith import int_valuation, sigma_k, valuation_p
from vvmf3.mde import (
    build_mde,
    component_series,
    derived_basis,
    indicial_phi,
    minimal_vector,
    ode_residual,
    phi_j,
)
from vvmf3.qseries import QExpansion
from vvmf3.reps import (
    InvalidTripleError,
    enumerate_level,
    gamma02_family,
    gamma3_family,
    ubd_criterion,
    validate_triple,
)
from vvmf3.valuation import (
    classify_prime,
    denominator_profile,
    verify_formula,
    z_n_value,
)


@contextmanager
def criterion(num: int, label: str):
    start = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {num}: {label} ({time.monotonic() - start:.1f}s)")


def test_criterion_01_indicial_identities() -> None:
    with criterion(1, "indicial identities for every triple with N <= 20, n <= 50"):
        checked = 0
        for level in range(1, 21):
            for t in enumerate_level(level):
                sys = build_mde(t, 1)
                for lead in (t.A, t.B, t.C):
                    r = Fraction(lead, t.N)
                    b, c = (e for e in (t.A, t.B, t.C) if e != lead)
                    for n in range(51):
                        # N^2 phi(r + n) = n lambda(n), lambda(n) = (Nn + a - b)(Nn + a - c).
                        lhs2 = t.N**2 * indicial_phi(sys, r + n)
                        assert lhs2 == n * (t.N * n + lead - b) * (t.N * n + lead - c)
                        lhs3 = t.N**3 * phi_j(sys, 1, r + n)
                        assert lhs3 == z_n_value(t, lead, n)
                checked += 1
        assert checked > 100


def test_criterion_02_g_series_anchors() -> None:
    with criterion(2, "G-series closed forms on 100 sampled triples, N <= 10^4"):
        sample = sample_triples(100, level_max=10**4)
        for t in sample:
            sig, om, pi, N = t.sigma, t.omega, t.product, t.N
            sys = build_mde(t, 50)
            G0, G1, G2 = g_series(sys)
            assert G2[0] == 3 - Fraction(sig, N)
            assert G1[0] == G2[0] + Fraction(om, N**2) - 2
            assert G0[0] == -Fraction(pi, N**3)
            for n in range(1, 51):
                assert G2[n] == Fraction(24 * sig, N) * sigma_k(1, n)
            assert G1[1] == Fraction(240 * om - 48 * sig * (2 * sig - N), N**2)
            assert G0[1] == Fraction(
                504 * pi + (2 * sig - N) * (8 * sig * (4 * sig - N) - 120 * om), N**3
            )


def test_criterion_03_integrality() -> None:
    with criterion(3, "denominator bounds for the G-series tails, 2 <= n <= 50"):
        sample = sample_triples(100, level_max=10**4)
        for t in sample:
            N = t.N
            d2 = 0 if N % 2 == 0 else 1
            d3 = 0 if N % 3 == 0 else 1
            g0, g1, g2 = g_series(build_mde(t, 50))
            for n in range(2, 51):
                assert g2[n].denominator == 1
                assert (3**d3 * N**2 * g1[n]).denominator == 1
                assert (2**d2 * 3**d3 * N**3 * g0[n]).denominator == 1


def test_criterion_04_ode_residual() -> None:
    with criterion(4, "zero residual through order 100 plus perturbation control"):
        for t in sample_triples(20, level_max=100):
            sys = build_mde(t, 100)
            for comp in minimal_vector(sys).components:
                residual = ode_residual(sys, comp)
                assert all(c == 0 for c in residual.coeffs)

        t = validate_triple(1, 2, 4, 7)
        sys = build_mde(t, 30)
        comp = component_series(sys, 1)
        bumped = QExpansion(
            exponent=comp.exponent,
            coeffs=tuple(c + (1 if i == 1 else 0) for i, c in enumerate(comp.coeffs)),
        )
        residual = ode_residual(sys, bumped)
        assert residual.coeffs[0] == 0
        assert residual.coeffs[1] == Fraction(24, 49)


def test_criterion_05_valuation_law() -> None:
    with criterion(5, "exact valuation law for (1,3,7,11), p=11, n <= 300"):
        start = time.monotonic()
        t = validate_triple(1, 3, 7, 11)
        report = verify_formula(t, 11, n_max=300)
        assert report.verdict == "formula-verified"
        assert report.case.delta == -1 and report.lead == 1

        acc = 0
        for n, observed, predicted in report.rows:
            lam = (t.N * n + 1 - t.B) * (t.N * n + 1 - t.C)  # lambda(n), lead 1
            acc += int_valuation(n, 11) + int_valuation(lam, 11)
            assert observed == predicted == -n - acc
        observations = [observed for _, observed, _ in report.rows]
        assert all(b < a for a, b in zip(observations, observations[1:]))

        comp = component_series(build_mde(t, 11), 1)
        assert comp.coeffs[1] == Fraction(-40, 33)
        assert valuation_p(comp.coeffs[1], 11) == -1
        assert valuation_p(comp.coeffs[11], 11) == -12
        assert time.monotonic() - start < 300


def test_criterion_06_criterion_consistency() -> None:
    with criterion(6, "every criterion prime at N <= 60 verifies the law to n=100"):
        pairs = 0
        for level in range(1, 61):
            for t in enumerate_level(level):
                for p in ubd_criterion(t.N):
                    case = classify_prime(t, p)
                    assert case.case_id is not None and case.lead is not None
                    vz0 = int_valuation(z_n_value(t, case.lead, 0), p)
                    assert int_valuation(t.N, p) > 2 * vz0
                    assert verify_formula(t, p, n_max=100).verdict == "formula-verified"
                    pairs += 1
        assert pairs > 100


def test_criterion_07_bounded_contrast() -> None:
    with criterion(7, "no decreasing denominator pattern for the bounded classes"):
        triples = [t for level in range(1, 6) for t in enumerate_level(level)]
        triples += [validate_triple(1, 2, 4, 7), validate_triple(3, 5, 6, 7)]
        for t in triples:
            sys = build_mde(t, 200)
            for comp in minimal_vector(sys).components:
                profile = denominator_profile(comp)
                assert all(not s.strictly_decreasing for s in profile.stats)
                assert profile.verdict != "decreasing-unbounded-pattern"

        anchor = component_series(build_mde(validate_triple(1, 2, 4, 7), 2), 1)
        assert anchor.coeffs[1] == -3


def test_criterion_08_families() -> None:
    with criterion(8, "induced families: pins and the M <= 12 grid invariants"):
        res = gamma02_family(4, 1, 0)
        t = res.triple
        assert (t.A, t.B, t.C, t.N) == (2, 3, 7, 8)
        assert t.C == t.B + 4

        with pytest.raises(InvalidTripleError) as exc_info:
            gamma02_family(4, 1, 1)
        assert exc_info.value.code == "collision"

        t0 = gamma3_family(0, 0, 0).triple
        assert (t0.A, t0.B, t0.C, t0.N) == (0, 1, 2, 3)
        t2 = gamma3_family(2, 2, 2).triple
        assert (t2.A, t2.B, t2.C, t2.N) == (1, 3, 5, 6)

        valid = 0
        for m in range(1, 13):
            for a in range(m):
                if math.gcd(a, m) != 1:
                    continue
                for x in range(4):
                    try:
                        res = gamma02_family(m, a, x)
                    except InvalidTripleError:
                        continue
                    valid += 1
                    e1, e2, e3 = res.exponents
                    assert (e3 - e2) % 1 == Fraction(1, 2)
                    chi = res.chi_exponents
                    assert (chi["E"] + chi["P1"] + chi["P2"]) % 1 == 0
                    orders = [e.denominator for e in res.exponents]
                    assert math.lcm(*orders) == 8 * m // math.gcd(4, m * x)
        assert valid > 150


def test_criterion_09_basis_vandermonde() -> None:
    with criterion(9, "det(B) equals the exponent Vandermonde and is nonzero"):
        for t in sample_triples(20, level_max=200):
            sys = build_mde(t, 8)
            basis = derived_basis(sys, minimal_vector(sys))
            assert basis.determinant == basis.vandermonde
            assert basis.determinant != 0

        sys = build_mde(validate_triple(1, 2, 4, 7), 8)
        basis = derived_basis(sys, minimal_vector(sys))
        assert basis.determinant == Fraction(6, 343)


def test_criterion_10_enumeration() -> None:
    with criterion(10, "level-7 enumeration matches the brute-force filter"):
        got = [(t.A, t.B, t.C) for t in enumerate_level(7)]
        assert got == [(0, 1, 6), (0, 2, 5), (0, 3, 4), (1, 2, 4), (3, 5, 6)]
        assert got == brute_force_level(7)
        assert all(t.N == 7 for t in enumerate_level(7))
