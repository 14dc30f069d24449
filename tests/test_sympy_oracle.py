"""sympy as an independent oracle for the number theory in vvmf3.arith, and
as the prover of the two identities behind verify_formula's law."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vvmf3.arith import bernoulli, is_prime, prime_factors, sigma_k
from vvmf3.mde import build_mde
from vvmf3.reps import enumerate_level
from vvmf3.valuation import z_n_value

sympy = pytest.importorskip("sympy")

# 399165290221 * 798330580441: a strong pseudoprime to every prime base up to 37.
PSEUDOPRIME_37 = 318665857834031151167461


@given(st.integers(min_value=1, max_value=10**18))
@example(PSEUDOPRIME_37)
@settings(max_examples=200, deadline=None)
def test_is_prime_and_prime_factors_match_sympy(n):
    assert is_prime(n) == sympy.isprime(n)
    assert prime_factors(n) == sorted(sympy.factorint(n).items())


@given(st.integers(min_value=2**30, max_value=2**45), st.integers(min_value=2**30, max_value=2**45))
@example(2**45, 2**45 - 10**6)  # 35184372088777 * 35184371088793
@settings(max_examples=10, deadline=None)
def test_prime_factors_of_two_large_primes_match_sympy(a, b):
    # prevprime maps [2^30, 2^45] onto primes of 30 to 45 bits.
    p, q = sympy.prevprime(a), sympy.prevprime(b)
    assert not is_prime(p * q)
    assert prime_factors(p * q) == sorted(sympy.factorint(p * q).items())


# The last primes below the trial-division bound 10^4 and the first above it.
TABLE_EDGE_PRIMES = (2, 9949, 9967, 9973, 10007, 10009)


def test_prime_factors_at_the_table_edge_match_sympy():
    q = sympy.prevprime(2**45)
    ns = [1, 9973 * q, q * q]
    ns += [p**k for p in TABLE_EDGE_PRIMES for k in (2, 3)]
    ns += [p * r for i, p in enumerate(TABLE_EDGE_PRIMES) for r in TABLE_EDGE_PRIMES[i + 1:]]
    for n in ns:
        assert prime_factors(n) == sorted(sympy.factorint(n).items()), n


def test_bernoulli_matches_sympy():
    for k in range(2, 121, 2):
        assert bernoulli(k) == Fraction(str(sympy.bernoulli(k)))


@given(st.integers(min_value=0, max_value=13), st.integers(min_value=1, max_value=10**6))
@example(0, 1)
@example(11, 720720)
@settings(max_examples=200, deadline=None)
def test_sigma_k_matches_sympy(k, n):
    assert sigma_k(k, n) == sympy.divisor_sigma(n, k)


def _h(N, sig, om, pi, m, e2, e4, e6, div):
    """h0[m], h1[m], h2[m] of build_mde, restated from its formulas over the
    q^m coefficients e2, e4, e6 of E2, E4, E6, with div(a, b) = a / b."""
    x0 = 4 * sig - 2 * N
    x4 = 144 * om - 3 * x0 * (x0 + 4 * N) - 8 * N * N
    x6 = x0 * x4 + x0 * (x0 + 2 * N) * (x0 + 4 * N) - 1728 * pi
    w4 = 3 * x0 * N + 2 * N * N + x4
    w6 = 4 * x0 * N * N - x6
    p1 = 3 * (x0 + N) * (x0 + 2 * N)
    p3 = x0 * (x0 + N) * (x0 + 2 * N)
    # A sympy m with positive=True is never == 0.
    h2 = 18 * N - 6 * sig if m == 0 else -6 * sig * e2
    h1 = div((144 * N * N if m == 0 else 0) + (12 * m * p1 - 144 * N * sig) * e2
             + (p1 + w4) * e4, 24)
    h0 = div(-(72 * m * m * p3 * e2 + m * (3 * x0 * w4 + 9 * p3) * e4
               + (x0 * w4 + p3 + w6) * e6), 288)
    return h0, h1, h2


def _symbolic_h(N, sig, m, s1, s3, s5, om=None, pi=None):
    """The restated h_j[m], m >= 1, with E2, E4, E6 written by sigma_1, sigma_3,
    sigma_5 of m; om and pi default to free symbols."""
    om = sympy.Symbol("omega", integer=True) if om is None else om
    pi = sympy.Symbol("pi", integer=True) if pi is None else pi
    return _h(N, sig, om, pi, m, -24 * s1, 240 * s3, -504 * s5, lambda a, b: a / b)


def test_first_recursion_polynomial_is_six_z():
    # P_1(j) = h2[1] u (u - N) + h1[1] u + h0[1], u = A + jN, against
    # z_n_value itself, evaluated on symbols: a polynomial identity in
    # (A, B, C, N, j), so nu_p(P_1(j)) = nu_p(6 z_j) for every lead and j.
    A, B, C, N = sympy.symbols("A B C N", integer=True)
    j = sympy.Symbol("j", integer=True, nonnegative=True)
    t = SimpleNamespace(A=A, B=B, C=C, N=N, sigma=A + B + C,
                        omega=A * B + A * C + B * C, product=A * B * C)
    h0, h1, h2 = _symbolic_h(N, t.sigma, 1, 1, 1, 1, t.omega, t.product)
    u = A + j * N
    assert sympy.expand(h2 * u * (u - N) + h1 * u + h0 - 6 * z_n_value(t, A, j)) == 0


def test_residual_diagonal_is_the_closed_indicial_cubic():
    # The residual's diagonal from the equation, 6N^3 v (v - e)(v - 2e) plus
    # the h_j[0] terms at scales N^2 e, N e^2, e^3, against mde._diagonal's
    # 6(Nv - Ae)(Nv - Be)(Nv - Ce): a polynomial identity in (A, B, C, N, v, e),
    # so the indicial cubic is monic with the roots A/N, B/N, C/N.
    A, B, C, N, v, e = sympy.symbols("A B C N v e", integer=True)
    h0, h1, h2 = _h(N, A + B + C, A * B + A * C + B * C, A * B * C, 0, 1, 1, 1,
                    lambda a, b: a / b)
    old = (6 * N**3 * v * (v - e) * (v - 2 * e) + N**2 * e * h2 * v * (v - e)
           + N * e**2 * h1 * v + e**3 * h0)
    assert sympy.expand(old - 6 * (N * v - A * e) * (N * v - B * e) * (N * v - C * e)) == 0


def test_six_divides_every_later_h():
    # For m >= 1, h_j[m] / 6 is a polynomial with integer coefficients in N,
    # sigma, omega, the exponent product, m and sigma_1, sigma_3, sigma_5 of
    # m taken as free integers (the content is in fact 48): p = 2 and 3
    # divide every h_j[m], so every P_m(j) with m >= 1, at every level.
    N, sig = sympy.symbols("N sigma", integer=True)
    m, s1, s3, s5 = sympy.symbols("m s1 s3 s5", integer=True, positive=True)
    for h in _symbolic_h(N, sig, m, s1, s3, s5):
        quotient = sympy.Poly(sympy.expand(h / 6), *sorted(h.free_symbols, key=str))
        assert all(c.is_integer for c in quotient.coeffs()), h


def test_restated_h_and_six_z_match_build_mde():
    # The restated formulas against build_mde's arrays on every triple with
    # N <= 30, with E2, E4, E6 from sympy's divisor sums; and P_1(j) read
    # from build_mde(t, 1) against 6 z_n_value for every exponent and j < 5.
    order = 6
    eis = [(1, 1, 1)] + [
        (-24 * sympy.divisor_sigma(m, 1), 240 * sympy.divisor_sigma(m, 3),
         -504 * sympy.divisor_sigma(m, 5)) for m in range(1, order + 1)
    ]
    eis = [tuple(map(int, e)) for e in eis]
    checked = 0
    for t in (t for N in range(1, 31) for t in enumerate_level(N)):
        sys = build_mde(t, order)
        for m, (e2, e4, e6) in enumerate(eis):
            assert _h(t.N, t.sigma, t.omega, t.product, m, e2, e4, e6, Fraction) \
                == (sys.h0[m], sys.h1[m], sys.h2[m]), (t, m)
        first = build_mde(t, 1)
        h0, h1, h2 = first.h0[1], first.h1[1], first.h2[1]
        for a in (t.A, t.B, t.C):
            for j in range(5):
                u = a + j * t.N
                assert h2 * u * (u - t.N) + h1 * u + h0 == 6 * z_n_value(t, a, j), (t, a, j)
        checked += 1
    assert checked == 2345
