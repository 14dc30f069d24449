import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvmf3.arith import (
    INFINITY,
    bernoulli,
    int_valuation,
    is_prime,
    prime_factors,
    rational_str,
    sigma_k,
    valuation_p,
)
from conftest import oracle_bernoulli, oracle_sigma


def test_rational_str_exact_forms():
    assert rational_str(Fraction(-40, 33)) == "-40/33"
    assert rational_str(Fraction(5)) == "5"
    assert rational_str(Fraction(0)) == "0"
    assert rational_str(Fraction(6, 343)) == "6/343"
    assert rational_str(Fraction(4, -2)) == "-2"


@pytest.mark.parametrize(
    "call",
    [lambda: valuation_p(0.1, 2), lambda: rational_str(0.1)],
    ids=["valuation_p", "rational_str"],
)
def test_floats_are_rejected(call):
    # 0.1 would enter as 3602879701896397/36028797018963968, of 2-adic valuation -55.
    with pytest.raises(TypeError):
        call()


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1729)
    assert not is_prime(2047)  # 23 * 89, strong pseudoprime base 2
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # Strong pseudoprime to every prime base up to 37; base 41 exposes it.
    assert not is_prime(318665857834031151167461)


def test_prime_factors_known():
    assert prime_factors(5544) == [(2, 3), (3, 2), (7, 1), (11, 1)]
    assert prime_factors(1) == []
    assert prime_factors(2**10) == [(2, 10)]
    assert prime_factors(10**12 + 39) == [(10**12 + 39, 1)]
    assert prime_factors(318665857834031151167461) == [(399165290221, 1), (798330580441, 1)]


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_prime_factors_reconstructs(n):
    factors = prime_factors(n)
    assert math.prod(p**e for p, e in factors) == n
    for p, e in factors:
        assert is_prime(p) and e >= 1
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_prime_factors_rejects_nonpositive():
    with pytest.raises(ValueError):
        prime_factors(0)
    with pytest.raises(ValueError):
        prime_factors(-6)


def test_int_valuation():
    assert int_valuation(48, 2) == 4
    assert int_valuation(-48, 2) == 4
    assert int_valuation(49, 7) == 2
    assert int_valuation(1, 5) == 0
    assert int_valuation(0, 5) == INFINITY
    # Every exponent up to 1100, across the powers of two the search steps by.
    for v in range(1101):
        assert int_valuation(3 * 2**v, 2) == v
        assert int_valuation(-(7**v) * 10, 7) == v
    assert int_valuation(12, 4) == 1  # a composite base counts whole powers
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            int_valuation(5, p)


def test_valuation_p_rationals():
    assert valuation_p(Fraction(6, 2), 3) == 1
    assert valuation_p(Fraction(-504, 343), 7) == -2
    assert valuation_p(Fraction(0), 5) == INFINITY
    assert valuation_p(12, 2) == 2
    with pytest.raises(ValueError):
        valuation_p(Fraction(1, 2), 4)


@given(
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)),
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)),
    st.sampled_from([2, 3, 5, 7, 11]),
)
@settings(max_examples=200)
def test_valuation_is_additive_and_ultrametric(x, y, p):
    vx, vy = valuation_p(x, p), valuation_p(y, p)
    assert valuation_p(x * y, p) == vx + vy
    assert valuation_p(x + y, p) >= min(vx, vy)
    if vx != vy:
        assert valuation_p(x + y, p) == min(vx, vy)


def test_bernoulli_table():
    expected = {
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for k, v in expected.items():
        assert bernoulli(k) == v
    for k in range(2, 30, 2):
        assert bernoulli(k) == oracle_bernoulli(k)
    for bad in (-1, 0, 1, 3):
        with pytest.raises(ValueError):
            bernoulli(bad)


def test_sigma_k():
    assert sigma_k(1, 6) == 12
    assert sigma_k(3, 4) == 1 + 8 + 64
    assert sigma_k(0, 12) == 6
    for n in range(1, 40):
        assert sigma_k(1, n) == oracle_sigma(1, n)
        assert sigma_k(5, n) == oracle_sigma(5, n)
    with pytest.raises(ValueError):
        sigma_k(1, 0)
    with pytest.raises(ValueError):
        sigma_k(-1, 6)


def test_eisenstein_normalization_constants():
    # -2k/B_k for k = 2, 4, 6: the classical -24, 240, -504.
    for k, c in ((2, -24), (4, 240), (6, -504)):
        assert -Fraction(2 * k) / bernoulli(k) == c
