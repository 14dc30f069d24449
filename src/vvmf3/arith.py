"""Exact rational scalars and the number-theoretic substrate.

Everything downstream computes with ``fractions.Fraction``: arbitrary
precision, eagerly reduced, denominator always positive.  This module adds
p-adic valuations with a proper infinity for zero, Bernoulli numbers via the
classical recurrence, divisor power sums, and the factoring of the integers
that show up in coefficient denominators: trial division by the primes below
10^4 up to the square root of what is left, whose leftover is then prime, and
Miller-Rabin (exact below 3.3e24) with Pollard rho only for a cofactor whose
prime factors all exceed 10^4, so no integer below 10^8 relies on Miller-Rabin.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Union

# A p-adic valuation is a plain int, except that the valuation of zero is
# INFINITY, which compares greater than every int and absorbs addition.
ValuationValue = Union[int, float]
INFINITY: float = math.inf

RationalLike = Union[Fraction, int]

__all__ = [
    "INFINITY",
    "ValuationValue",
    "bernoulli",
    "int_valuation",
    "is_prime",
    "prime_factors",
    "rational_str",
    "sigma_k",
    "valuation_p",
]


def _exact(x: RationalLike) -> Fraction:
    """x as a Fraction; a float, only a binary approximation, raises TypeError.
    Text goes through Fraction(x); "num" or "num/den" text whose integers
    exceed CPython's limit on decimal conversion, through _int_from_digits."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"exact values are int or Fraction, not the float {x!r}")
    try:
        return Fraction(x)
    except ValueError:
        if not isinstance(x, str):
            raise
        num, slash, den = x.strip().partition("/")
        sign = num[:1] if num[:1] in ("+", "-") else ""
        digits, den = num[len(sign):], den if slash else "1"
        if not all(d.isascii() and d.isdigit() for d in (digits, den)):
            raise
        n = _int_from_digits(digits)
        return Fraction(-n if sign == "-" else n, _int_from_digits(den))


def _int_from_digits(digits: str) -> int:
    """int(digits) for ASCII digits of any length: past CPython's limit on
    decimal conversion (sys.get_int_max_str_digits(), 4,300 by default) int
    raises ValueError, and the two halves are read in turn."""
    try:
        return int(digits)
    except ValueError:
        k = len(digits) // 2
        return _int_from_digits(digits[:-k]) * 10**k + _int_from_digits(digits[-k:])


def _int_str(n: int) -> str:
    """str(n) for an int of any size: past CPython's limit on decimal
    conversion str raises ValueError, and the quotient and remainder by 10^k,
    k about half the digits, are written in turn; the interpreter's limit is
    left as it is."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _int_str(-n)
        k = n.bit_length() * 3 // 20  # log10(2) / 2 > 3/20
        high, low = divmod(n, 10**k)
        return _int_str(high) + _int_str(low).zfill(k)


def rational_str(x: RationalLike) -> str:
    """Canonical text form "num/den", with "/den" omitted when den is 1, for
    integers of any size.

    >>> rational_str(Fraction(-40, 33))
    '-40/33'
    >>> rational_str(Fraction(10, 2))
    '5'
    """
    num, den = _exact(x).as_integer_ratio()
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


# The first 13 primes as witnesses make Miller-Rabin deterministic below
# 3,317,044,064,679,887,385,961,981; above that bound a composite can pass.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the witnesses above: exact below their bound.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of an odd composite n (Brent cycle, c sweep).

    The differences are multiplied together mod n and take one gcd per batch
    of 128; a batch whose gcd is n is replayed one step at a time.
    """
    for c in range(1, 1000):
        y, r, d = 2, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys, q = y, 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += 128
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho factorization failed for {n}")


# Trial division runs over every prime below _TABLE_BOUND, sieved once at import.
_TABLE_BOUND = 10_000


def _primes_below(bound: int) -> list[int]:
    """The primes below bound, by a bytearray sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return list(itertools.compress(range(bound), sieve))


_SMALL_PRIMES = _primes_below(_TABLE_BOUND)


def prime_factors(n: int) -> list[tuple[int, int]]:
    """Prime factorization as sorted (prime, exponent) pairs; 1 -> [].

    Trial division by the primes below 10^4 stops at the first p with
    p * p > m, m what is left; that m, if > 1, is prime.  Only when the table
    runs out with m >= 10^8, every prime factor of m above 10^4, do
    Miller-Rabin and Pollard rho split m, so no n below 10^8 relies on them.

    >>> prime_factors(5544)
    [(2, 3), (3, 2), (7, 1), (11, 1)]
    """
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    # A break left m < p * p, so m is 1 or prime; so is an m below the square
    # of the bound, since the table has run out and every prime factor of m
    # exceeds the bound.
    if m < _TABLE_BOUND * _TABLE_BOUND:
        if m > 1:
            out.append((m, 1))
        return out
    large: dict[int, int] = {}
    stack = [m]
    while stack:
        v = stack.pop()
        if is_prime(v):
            large[v] = large.get(v, 0) + 1
            continue
        f = _pollard_rho(v)
        stack.append(f)
        stack.append(v // f)
    return out + sorted(large.items())


def int_valuation(n: int, p: int) -> ValuationValue:
    """Exponent of p in n, for n an integer and p >= 2; INFINITY when n is 0.

    Tests p, p^2, p^4, ... while they divide n, then takes the binary digits
    of the exponent from the top: O(log nu_p(n)) divisions, not nu_p(n).
    """
    if p < 2:
        raise ValueError(f"int_valuation needs p >= 2, got {p}")
    if n == 0:
        return INFINITY
    powers = [p]
    while n % powers[-1] == 0:
        powers.append(powers[-1] * powers[-1])
    v = 0
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 2**i
    return v


def valuation_p(x: RationalLike, p: int) -> ValuationValue:
    """p-adic valuation of a rational; INFINITY for zero.

    >>> valuation_p(Fraction(6, 2), 3)
    1
    >>> valuation_p(Fraction(-504, 343), 7)
    -2
    >>> valuation_p(0, 5)
    inf
    """
    if not is_prime(p):
        raise ValueError(f"valuation_p needs a prime, got {p}")
    x = _exact(x)
    if x == 0:
        return INFINITY
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


# B_0, B_1, ... with the B_1 = -1/2 convention; extended on demand.
_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number for even k >= 2, memoized.

    Uses the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 solved for B_m.

    >>> bernoulli(2), bernoulli(4), bernoulli(6)
    (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42))
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"bernoulli is defined here for even k >= 2, got {k}")
    while len(_BERNOULLI) <= k:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for j in range(m):
            if _BERNOULLI[j]:
                acc += math.comb(m + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[k]


def sigma_k(k: int, n: int) -> int:
    """Sum of k-th powers of the positive divisors of n, for k >= 0.

    >>> sigma_k(1, 6), sigma_k(3, 2), sigma_k(3, 1)
    (12, 9, 1)
    """
    if k < 0:
        raise ValueError(f"sigma_k needs k >= 0, got {k}")
    if n <= 0:
        raise ValueError(f"sigma_k needs n >= 1, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
        d += 1
    return total
