"""sympy as an independent oracle for the number theory in vvmf3.arith."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vvmf3.arith import bernoulli, is_prime, prime_factors, sigma_k

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
