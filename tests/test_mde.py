import os
import subprocess
import random
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from pathlib import Path
from sys import executable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vvmf3.mde
from vvmf3.mde import (
    _recursion_c,
    build_mde,
    component_series,
    derived_basis,
    indicial_phi,
    minimal_vector,
    ode_residual,
    phi_j,
)
from vvmf3.qseries import QExpansion, _blocks, _horner
from vvmf3.reps import enumerate_level, validate_triple
from vvmf3.valuation import denominator_profile
from conftest import (
    _smulser,
    euler_power,
    g_series,
    oracle_coefficients,
    oracle_g_series,
    oracle_phi,
    oracle_phi_j,
    SEED,
    reference_ode_residual,
    reference_unreduced,
    sample_triples,
)

ANCHOR = validate_triple(1, 2, 4, 7)
UNBOUNDED = validate_triple(1, 3, 7, 11)


def test_integer_parameters_anchor():
    sys = build_mde(ANCHOR, 2)
    assert (sys.x0, sys.x4, sys.x6) == (14, -140, 680)
    assert sys.alpha4 == Fraction(-5, 252)
    assert sys.alpha6 == Fraction(85, 74088)
    sys11 = build_mde(UNBOUNDED, 0)
    assert (sys11.x0, sys11.x4, sys11.x6) == (22, -860, 8680)


def test_g_series_match_oracle():
    # Levels 9 and 8 exercise the 3- and 2-adic divisions of the closed forms.
    for t, order in (
        (ANCHOR, 15),
        (UNBOUNDED, 15),
        (validate_triple(0, 1, 2, 3), 15),
        (validate_triple(1, 2, 6, 9), 15),
        (validate_triple(2, 3, 7, 8), 15),
        (UNBOUNDED, 120),
    ):
        assert g_series(build_mde(t, order)) == oracle_g_series(t, order)


def test_structural_divisibility_sampled():
    for t in sample_triples(60, 400):
        sys = build_mde(t, 0)
        assert sys.x0 % 2 == 0 and sys.x4 % 4 == 0 and sys.x6 % 8 == 0
        if t.N % 3 == 0:
            assert sys.x0 % 3 == 0 and sys.x4 % 3 == 0 and sys.x6 % 9 == 0
        # 3 | x4 exactly when 3 | N.
        assert (sys.x4 % 3 == 0) == (t.N % 3 == 0)


def test_indicial_roots_and_cubic():
    for t in (ANCHOR, UNBOUNDED, validate_triple(2, 3, 7, 8)):
        sys = build_mde(t, 0)
        for e in t.exponents:
            assert indicial_phi(sys, e) == 0
        # Monic cubic: phi(lam) - prod(lam - r_i) vanishes identically.
        for lam in (Fraction(1, 2), Fraction(5), Fraction(-3, 7)):
            prod = (lam - t.exponents[0]) * (lam - t.exponents[1]) * (lam - t.exponents[2])
            assert indicial_phi(sys, lam) == prod


def test_phi_identities_vs_oracle():
    t = ANCHOR
    sys = build_mde(t, 10)
    gj = oracle_g_series(t, 10)
    for lam in (Fraction(1, 7), Fraction(8, 7), Fraction(3, 2)):
        assert indicial_phi(sys, lam) == oracle_phi(gj, lam)
        for j in range(1, 11):
            assert phi_j(sys, j, lam) == oracle_phi_j(gj, j, lam)
    with pytest.raises(ValueError):
        phi_j(sys, 0, Fraction(1))
    with pytest.raises(ValueError):
        phi_j(sys, 11, Fraction(1))


def test_lambda_n_positive_and_consistent():
    # c_k = 6N k lambda(k) = 6N^3 phi(lead/N + k), positive for every k >= 1.
    for t in sample_triples(25, 300):
        sys = build_mde(t, 0)
        for lead in (t.A, t.B, t.C):
            r = Fraction(lead, t.N)
            c = _recursion_c(t, lead, 11)
            assert len(c) == 11
            for k, c_k in enumerate(c, 1):
                assert c_k > 0
                assert 6 * t.N**3 * indicial_phi(sys, r + k) == c_k
    with pytest.raises(ValueError):
        _recursion_c(ANCHOR, 3, 1)


def test_component_series_matches_naive_oracle():
    for t in (ANCHOR, UNBOUNDED, validate_triple(0, 3, 5, 8), validate_triple(1, 4, 10, 15)):
        sys = build_mde(t, 25)
        for lead in (t.A, t.B, t.C):
            fast = component_series(sys, lead)
            slow = oracle_coefficients(t, lead, 25)
            assert list(fast.coeffs) == slow, (t, lead)
            assert fast.exponent == Fraction(lead, t.N)


def test_component_series_matches_unreduced_recursion():
    # Two algorithms: the running common denominator of component_series
    # against the unreduced Horner numerators of the reference over prod c_k.
    cases = [(t, 60) for level in range(1, 13) for t in enumerate_level(level)]
    cases += [(UNBOUNDED, 400), (validate_triple(1, 9, 22, 32), 400)]
    for t, order in cases:
        sys = build_mde(t, order)
        for lead in (t.A, t.B, t.C):
            anum, c = reference_unreduced(sys, lead, order)
            expected = list(map(Fraction, anum, accumulate(c, mul)))
            assert list(component_series(sys, lead).coeffs) == expected, (t, lead)


def test_component_series_matches_unreduced_recursion_at_random_orders():
    # component_series closes a block of b_j at the row n where the open one
    # outgrows 4 sqrt(n + 1): at n = 16, 43, 79 and 124 below 160, for every
    # series.  Random triples with N <= 60 at random orders in 0..160 end
    # their series before, at, just after and between those closes, and the
    # rows after a close whose gcd grows the lcm come from varied triples;
    # the orders 0, 1 and 2 end before any close.
    rng = random.Random(SEED)
    triples = sample_triples(30, 60, seed=SEED + 1)
    orders = [0, 1, 2] + [rng.randrange(161) for _ in triples[3:]]
    for t, order in zip(triples, orders):
        sys = build_mde(t, order)
        for lead in (t.A, t.B, t.C):
            anum, c = reference_unreduced(sys, lead, order)
            expected = list(map(Fraction, anum, accumulate(c, mul)))
            assert list(component_series(sys, lead).coeffs) == expected, (t, lead, order)


def test_component_series_keeps_closed_blocks_over_prefix_lcms(monkeypatch):
    # The width of the integers, which no output shows.  For every component
    # of every triple with N <= 12 at order 60 and of UNBOUNDED at order 300,
    # the block pass over the output puts each block at a(j) L_k, with L_k
    # the lcm of the denominators through the block's last index, and the
    # ratio L_k / L_(k-1); and before row n component_series holds exactly
    # the blocks of a(0..n-1), so its blocks close where the pass's do.
    states = []

    def recording(blocks, row):
        states.append([(ratio, list(ints)) for ratio, ints in blocks if ints])
        return _horner(blocks, row)

    monkeypatch.setattr(vvmf3.mde, "_horner", recording)
    cases = [(t, 60) for level in range(1, 13) for t in enumerate_level(level)]
    cases.append((UNBOUNDED, 300))
    for t, order in cases:
        sys = build_mde(t, order)
        for lead in (t.A, t.B, t.C):
            states.clear()
            a = component_series(sys, lead).coeffs
            lcms = list(accumulate((c.denominator for c in a), lcm))
            end, last = 0, 1
            for ratio, ints in _blocks(a):
                start, end = end, end + len(ints)
                assert ints == [c * lcms[end - 1] for c in a[start:end]], (t, lead, end)
                assert ratio * last == lcms[end - 1], (t, lead, end)
                last = lcms[end - 1]
            assert end == order + 1 and len(states) == order
            for n, state in enumerate(states, 1):
                assert state == _blocks(a[:n]), (t, lead, n)


def test_component_series_prefixes_agree():
    sys = build_mde(UNBOUNDED, 120)
    for lead in (UNBOUNDED.A, UNBOUNDED.B, UNBOUNDED.C):
        full = component_series(sys, lead)
        for order in range(121):
            assert component_series(sys, lead, order) == full.truncate(order), (lead, order)


# Triples with N <= 60 that some k >= 1 twists without wrapping: C/N + k/12 < 1.
_TWISTABLE = [t for N in range(1, 61) for t in enumerate_level(N) if 12 * t.C < 11 * t.N]


@st.composite
def twist_case(draw):
    t = draw(st.sampled_from(_TWISTABLE))
    return t, draw(st.integers(1, (12 * (t.N - t.C) - 1) // t.N))


@given(twist_case())
@example((UNBOUNDED, 1))
@example((ANCHOR, 4))
@settings(max_examples=150, deadline=None)
def test_eta_twist_multiplies_components_by_euler_power(case):
    # eta^(2k) = q^(k/12) prod (1 - q^n)^(2k) is a unit of Z[[q]], and times
    # the minimal-weight form of t it is that of the twist t', exponents
    # A/N + k/12, B/N + k/12, C/N + k/12, while none of them reaches 1.  The
    # two sides solve different equations: another level, h arrays and lead.
    # A unit of Z_(p)[[q]] keeps every running minimum of the valuations, so
    # the denominator profiles agree as well.  t' is admissible: its level is
    # the lcm of the exponents' denominators, so the gcd is 1, and
    # 4 sigma'/N' = 4 sigma/N + k.
    t, k = case
    shifted = [Fraction(a, t.N) + Fraction(k, 12) for a in (t.A, t.B, t.C)]
    n_twist = lcm(*(e.denominator for e in shifted))
    leads = [int(e * n_twist) for e in shifted]
    twisted = validate_triple(*leads, n_twist)
    unit = euler_power(2 * k, 30)
    sys, sys_twisted = build_mde(t, 30), build_mde(twisted, 30)
    for lead, lead_twisted in zip((t.A, t.B, t.C), leads):
        comp = component_series(sys, lead)
        comp_twisted = component_series(sys_twisted, lead_twisted)
        assert comp_twisted.exponent == comp.exponent + Fraction(k, 12)
        assert list(comp_twisted.coeffs) == _smulser(unit, list(comp.coeffs)), (twisted, lead)
        assert denominator_profile(comp_twisted) == denominator_profile(comp), (twisted, lead)


def test_minimal_vector_layout():
    sys = build_mde(ANCHOR, 8)
    mv = minimal_vector(sys)
    assert [c.exponent for c in mv.components] == list(ANCHOR.exponents)
    assert all(c.coeffs[0] == 1 for c in mv.components)
    short = [c.truncate(3) for c in mv.components]
    assert all(c.order == 3 for c in short)
    assert short == list(minimal_vector(build_mde(ANCHOR, 3)).components)
    with pytest.raises(ValueError):
        mv.components[0].truncate(9)


def test_ode_residual_zero_on_solutions():
    sys = build_mde(UNBOUNDED, 40)
    for comp in minimal_vector(sys).components:
        res = ode_residual(sys, comp)
        assert all(c == 0 for c in res.coeffs)


def test_ode_residual_detects_perturbation():
    sys = build_mde(ANCHOR, 10)
    comp = component_series(sys, 1)
    coeffs = list(comp.coeffs)
    coeffs[1] += 1
    res = ode_residual(sys, QExpansion(comp.exponent, coeffs))
    # First nonzero residual coefficient sits at the perturbed index and
    # equals phi(r + 1) times the perturbation.
    assert res.coeffs[0] == 0
    assert res.coeffs[1] == indicial_phi(sys, Fraction(1, 7) + 1) == Fraction(24, 49)
    assert any(c != 0 for c in res.coeffs[2:])


def test_ode_residual_matches_oracle_on_non_solutions():
    # res_n = sum_{j<n} f_j phi_{n-j}(r + j) + phi(r + n) f_n, from the
    # oracle's g-series, for random series whose exponent r is not a multiple
    # of 1/N and whose order is above, at or below the system's.
    rng = random.Random(SEED)
    for t in (ANCHOR, UNBOUNDED, validate_triple(0, 3, 5, 8)):
        sys = build_mde(t, 12)
        gj = oracle_g_series(t, 12)
        for r, order in ((Fraction(2, 3 * t.N + 1), 15), (Fraction(5, 97), 12),
                         (Fraction(0), 7), (Fraction(t.N - 1, t.N + 1), 12)):
            f = [Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))
                 for _ in range(order + 1)]
            res = ode_residual(sys, QExpansion(r, f))
            T = min(order, 12)
            assert res.exponent == r and res.order == T
            assert list(res.coeffs) == [
                sum(f[j] * oracle_phi_j(gj, n - j, r + j) for j in range(n))
                + oracle_phi(gj, r + n) * f[n]
                for n in range(T + 1)
            ], (t, r)


# The systems the reference comparison draws from, built once per order.
_RESIDUAL_SYSTEMS = {
    (t, order): build_mde(t, order)
    for t in (ANCHOR, UNBOUNDED, validate_triple(0, 3, 5, 8), validate_triple(2, 7, 12, 21))
    for order in (0, 1, 9, 24)
}
_residual_coefficient = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80).map(Fraction),
    st.fractions(min_value=Fraction(-99), max_value=Fraction(99), max_denominator=10**6),
)


@st.composite
def residual_case(draw):
    t, order = draw(st.sampled_from(list(_RESIDUAL_SYSTEMS)))
    sys = _RESIDUAL_SYSTEMS[(t, order)]
    # Exponents with denominators unrelated to N as well as multiples of 1/N;
    # series orders below, at and above the system's.
    den = draw(st.sampled_from([1, t.N, 2 * t.N, 97, 360]))
    exponent = Fraction(draw(st.integers(min_value=0, max_value=den - 1)), den)
    size = draw(st.sampled_from([0, 1, max(order - 1, 0), order, order + 3]))
    if draw(st.booleans()):
        coeffs = [Fraction(0)] * (size + 1)
    else:
        coeffs = draw(st.lists(_residual_coefficient, min_size=size + 1, max_size=size + 1))
    return sys, QExpansion(exponent, coeffs)


@given(residual_case())
@example((_RESIDUAL_SYSTEMS[(UNBOUNDED, 0)], QExpansion(Fraction(5, 97), [-3])))
@example((_RESIDUAL_SYSTEMS[(ANCHOR, 9)], QExpansion(0, [0] * 13)))
@example((_RESIDUAL_SYSTEMS[(ANCHOR, 24)], QExpansion(Fraction(1, 7), [-1, 2, -(2**80)] * 4)))
@settings(max_examples=150, deadline=None)
def test_ode_residual_matches_convolution_reference(case):
    sys, f = case
    res = ode_residual(sys, f)
    assert res == reference_ode_residual(sys, f)
    assert res.order == min(f.order, sys.order)
    assert all(type(c) is Fraction for c in res.coeffs)


def test_ode_residual_matches_convolution_reference_on_components():
    # Every component of every triple with N <= 20 at order 40, the
    # unbounded-denominator triple at order 300, and one perturbed component.
    # component_series and ode_residual read their rows from the same
    # mde._rows, so a zero residual alone cannot catch a fault there; the
    # convolution reference can.
    systems = [build_mde(t, 40) for N in range(1, 21) for t in enumerate_level(N)]
    systems.append(build_mde(UNBOUNDED, 300))
    assert len(systems) == 729
    for sys in systems:
        for comp in minimal_vector(sys).components:
            res = ode_residual(sys, comp)
            assert res == reference_ode_residual(sys, comp), sys.triple
            assert not any(res.coeffs)
    sys = build_mde(UNBOUNDED, 60)
    comp = component_series(sys, 3)
    coeffs = list(comp.coeffs)
    coeffs[17] -= Fraction(1, 11)
    bumped = QExpansion(comp.exponent, coeffs)
    res = ode_residual(sys, bumped)
    assert res == reference_ode_residual(sys, bumped)
    assert not any(res.coeffs[:17])
    assert res.coeffs[17] == -indicial_phi(sys, comp.exponent + 17) / 11


def test_derived_basis_anchor():
    sys = build_mde(ANCHOR, 6)
    basis = derived_basis(sys, minimal_vector(sys))
    assert basis.determinant == Fraction(6, 343)
    assert basis.vandermonde == Fraction(6, 343)
    k0 = ANCHOR.k0
    for i, r in enumerate(ANCHOR.exponents):
        expected_row = (
            Fraction(1),
            r - Fraction(k0, 12),
            (r - Fraction(k0, 12)) * (r - Fraction(k0 + 2, 12)),
        )
        assert basis.matrix[i] == expected_row
    # Derived components keep the exponent and shift the weight.
    assert [f.exponent for f in basis.first] == list(ANCHOR.exponents)
    assert [f.exponent for f in basis.second] == list(ANCHOR.exponents)


def test_derived_basis_determinant_sampled():
    for t in (UNBOUNDED, *sample_triples(12, 200)):
        sys = build_mde(t, 2)
        basis = derived_basis(sys, minimal_vector(sys))
        r = t.exponents
        assert basis.determinant == (r[1] - r[0]) * (r[2] - r[0]) * (r[2] - r[1])
        assert basis.determinant != 0


def test_build_mde_validation():
    with pytest.raises(ValueError):
        build_mde(ANCHOR, -1)
    sys = build_mde(ANCHOR, 5)
    with pytest.raises(ValueError):
        component_series(sys, 1, 6)
    with pytest.raises(ValueError, match="order must be >= 0"):
        component_series(sys, 1, -1)
    with pytest.raises(ValueError):
        component_series(sys, 5)


_OPTIMIZED_PROBE = """
import sys
from vvmf3.mde import _exact_div, _recursion_c
from vvmf3.reps import RepTriple

assert sys.flags.optimize
# (0, 1, 5) at level 1 bypasses validation; lambda(1) vanishes for lead 0.
t = object.__new__(RepTriple)
for name, value in zip("ABCN", (0, 1, 5, 1)):
    object.__setattr__(t, name, value)
calls = (
    lambda: _exact_div(7, 2, "probe"),
    lambda: _recursion_c(t, 0, 3),
)
for call in calls:
    try:
        call()
    except ArithmeticError as exc:
        print(exc)
    else:
        sys.exit("no ArithmeticError")
"""


def test_invariants_survive_optimized_mode():
    # python -O strips assert statements; the invariant checks must still raise.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [executable, "-O", "-c", _OPTIMIZED_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "probe is not divisible by 2: 7",
        "lambda_n vanishes for RepTriple(A=0, B=1, C=5, N=1), lead 0, n = 1",
    ]
