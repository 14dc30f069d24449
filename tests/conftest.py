"""Shared test helpers: an independent slow oracle, a reference recursion
and deterministic samplers.

The oracle functions rebuild everything from first principles with Fractions
(Bernoulli recurrence, divisor sums, explicit Cauchy products, recursion
dividing by the full indicial cubic) and share no code with the package, so
agreement is meaningful evidence.  reference_unreduced is the plain integer
Horner recursion over the package's h arrays, a second algorithm beside the
running common denominator of component_series.  Four more second
algorithms: reference_law takes nu_p of every c_k of the recursion, where the
package counts the terms of arithmetic progressions;
reference_denominator_profile finds its primes by dividing each denominator
by every prime found so far, where the package factors only the ratios of
the running lcm of the denominators, and it takes nu_p of every coefficient
for every prime, where the package takes only the valuations that can move
the statistics; reference_modular_derivative builds D_k f from Fraction
series operations with E2 f as a schoolbook product, where the package takes
one dot product per coefficient; and reference_ode_residual takes three
schoolbook products with the h arrays, where the package takes one dot
product per coefficient against a row advanced by finite differences.
euler_power gives the integer series prod (1 - q^n)^m of eta^m, for the
twist identity, whose two sides come from two different equations.
hypergeometric_valuations gives nu_p of the coefficients of the 3F2 behind
each component, whose running minimum at a prime p not dividing 6N checks
the profiles without reading the series at all.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd
from operator import add, mul

from vvmf3.arith import INFINITY, int_valuation, prime_factors
from vvmf3.mde import MDESystem
from vvmf3.qseries import QExpansion
from vvmf3.reps import RepTriple, validate_triple
from vvmf3.valuation import DenominatorProfile, PrimeStats

SEED = 20260826

_bern: list[Fraction] = [Fraction(1)]


def oracle_bernoulli(m: int) -> Fraction:
    while len(_bern) <= m:
        k = len(_bern)
        s = sum(Fraction(comb(k + 1, j)) * _bern[j] for j in range(k))
        _bern.append(-s / (k + 1))
    return _bern[m]


def oracle_sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def oracle_eisenstein(k: int, T: int) -> list[Fraction]:
    c = -Fraction(2 * k) / oracle_bernoulli(k)
    return [Fraction(1)] + [c * oracle_sigma(k - 1, n) for n in range(1, T + 1)]


def _smul(s: Fraction, f: list[Fraction]) -> list[Fraction]:
    return [s * x for x in f]


def _sadd(*fs: list[Fraction]) -> list[Fraction]:
    T = min(len(f) for f in fs)
    return [sum(f[i] for f in fs) for i in range(T)]


def _smulser(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    T = min(len(f), len(g))
    return [sum(f[j] * g[n - j] for j in range(n + 1)) for n in range(T)]


def euler_power(m: int, T: int) -> list[int]:
    """Coefficients of q^0..q^T in prod_{n>=1} (1 - q^n)^m, m >= 0: eta^m
    without its q^(m/24), one schoolbook product by (1 - q^n) at a time."""
    f = [1] + [0] * T
    for n in range(1, T + 1):
        for _ in range(m):
            f = f[:n] + [f[i] - f[i - n] for i in range(n, T + 1)]
    return f


def oracle_g_series(t: RepTriple, T: int) -> tuple[list[Fraction], ...]:
    """(g0, g1, g2) built with explicit Cauchy products, no shared code."""
    sig, om, pi, N = t.sigma, t.omega, t.product, t.N
    x0 = 4 * sig - 2 * N
    x4 = 144 * om - 3 * x0 * (x0 + 4 * N) - 8 * N * N
    x6 = x0 * x4 + x0 * (x0 + 2 * N) * (x0 + 4 * N) - 1728 * pi
    k0 = Fraction(x0, N)
    a4 = Fraction(x4, (12 * N) ** 2)
    a6 = Fraction(x6, (12 * N) ** 3)
    P = _smul(Fraction(-1, 12), oracle_eisenstein(2, T))
    Q = _smul(Fraction(1, 144), oracle_eisenstein(4, T))
    R = _smul(Fraction(-1, 432), oracle_eisenstein(6, T))
    P2 = _smulser(P, P)
    P3 = _smulser(P2, P)
    PQ = _smulser(P, Q)
    one = [Fraction(0)] * (T + 1)
    one[0] = Fraction(1)
    three = [Fraction(0)] * (T + 1)
    three[0] = Fraction(3)
    g2 = _sadd(three, _smul(3 * k0 + 6, P))
    g1 = _sadd(
        one,
        _smul(3 * k0 + 6, P),
        _smul(3 * k0 * k0 + 9 * k0 + 6, P2),
        _smul(3 * k0 + 2 + 144 * a4, Q),
    )
    g0 = _sadd(
        _smul(k0 * (3 * k0 + 2 + 144 * a4), PQ),
        _smul(k0 * (k0 + 1) * (k0 + 2), P3),
        _smul(k0 - 432 * a6, R),
    )
    return g0, g1, g2


def g_series(sys: MDESystem) -> tuple[list[Fraction], ...]:
    """(g0, g1, g2) of a built system, read from its h arrays: g_j = h_j / 6N^(3-j)."""
    N = sys.triple.N
    return tuple([Fraction(v, 6 * N ** (3 - j)) for v in h]
                 for j, h in enumerate((sys.h0, sys.h1, sys.h2)))


def oracle_phi_j(gj: tuple[list[Fraction], ...], j: int, lam: Fraction) -> Fraction:
    g0, g1, g2 = gj
    return g2[j] * lam * (lam - 1) + g1[j] * lam + g0[j]


def oracle_phi(gj: tuple[list[Fraction], ...], lam: Fraction) -> Fraction:
    return lam * (lam - 1) * (lam - 2) + oracle_phi_j(gj, 0, lam)


def oracle_coefficients(t: RepTriple, lead: int, T: int) -> list[Fraction]:
    """Recursion dividing by the full cubic, one Fraction division per step."""
    gj = oracle_g_series(t, T)
    r = Fraction(lead, t.N)
    a = [Fraction(1)]
    for n in range(1, T + 1):
        s = sum(a[j] * oracle_phi_j(gj, n - j, r + j) for j in range(n))
        a.append(-s / oracle_phi(gj, r + n))
    return a


def reference_unreduced(sys: MDESystem, lead: int, T: int) -> tuple[list[int], list[int]]:
    """(anum, c) with a(n) = anum[n] / (c[0] ... c[n]), c[0] = 1 and
    c[k] = 6N k lambda(k): the unreduced numerators of the recursion,
    anum[n] = -sum_{j<n} anum[j] (6N^3 phi_{n-j}(lead/N + j)) c[j+1] ... c[n-1],
    evaluated as a Horner recurrence with no reduction and no Fraction."""
    N = sys.triple.N
    u = [lead + j * N for j in range(T + 1)]
    uu = [v * (v - N) for v in u]
    c = [1] + reference_c(sys.triple, lead, T)
    anum = [1]
    for n in range(1, T + 1):
        s = 0
        for j in range(n):
            m = n - j
            s = s * c[j] + anum[j] * (sys.h2[m] * uu[j] + sys.h1[m] * u[j] + sys.h0[m])
        anum.append(-s)
    return anum, c


def reference_c(t: RepTriple, lead: int, T: int) -> list[int]:
    """[c_1, ..., c_T], c_k = 6N k lambda(k) with lambda(k) = (Nk + a - b)(Nk + a - c)
    for a = lead written through sigma and omega: 3a - sigma = (a - b) + (a - c)
    and 3a^2 - 2a sigma + omega = (a - b)(a - c)."""
    sig, om = t.sigma, t.omega
    return [6 * v * (v * (v + 3 * lead - sig) + lead * (3 * lead - 2 * sig) + om)
            for v in (t.N * k for k in range(1, T + 1))]


def reference_law(p: int, shift: int, c: list[int]) -> list[int]:
    """The law's column n * shift - sum_{k<=n} nu_p(c_k) for n = 1..len(c),
    given c = [c_1, ..., c_n] from reference_c and shift = delta + nu_p(6N)."""
    return [n * shift - d for n, d in enumerate(accumulate(int_valuation(ck, p) for ck in c), 1)]


def _dense_prime_stats(p: int, vals: list) -> PrimeStats:
    """Statistics of the valuations vals[i] of the coefficients a(i)."""
    running = INFINITY
    last_new_min = new_min_count = 0
    for i, v in enumerate(vals):
        if v < running:
            running, last_new_min = v, i
            new_min_count += 1
    return PrimeStats(
        prime=p,
        min_valuation=running,
        new_min_count=new_min_count,
        last_new_min_index=last_new_min,
        strictly_decreasing=all(b < a for a, b in zip(vals, vals[1:])),
    )


def reference_denominator_profile(f: QExpansion) -> DenominatorProfile:
    """The dense profile: nu_p of every coefficient for every prime found."""
    T = f.order
    fracs = [c.as_integer_ratio() for c in f.coeffs]

    primes: list[int] = []
    for _, d in fracs:
        for p in primes:
            while d % p == 0:
                d //= p
        if d > 1:
            primes.extend(p for p, _ in prime_factors(d))
            primes.sort()

    stats = tuple(
        _dense_prime_stats(
            p, [-int_valuation(d, p) if d % p == 0 else int_valuation(a, p) for a, d in fracs]
        )
        for p in primes
    )
    if not stats:
        verdict = "all-integral"
    elif any(s.min_valuation <= -3 and s.last_new_min_index >= T - max(1, T // 10)
             for s in stats):
        verdict = "decreasing-unbounded-pattern"
    else:
        verdict = "bounded-in-window"
    return DenominatorProfile(window=T, stats=stats, verdict=verdict)


def hypergeometric_valuations(t: RepTriple, lead: int, p: int, T: int) -> list | None:
    """[nu_p(F_m) for m = 0..T], F_m = prod (alpha_i)_m / (prod (beta_j)_m m!)
    the coefficients of the 3F2 in Franc and Mason's form (Ramanujan J. 41,
    2016) of the component of exponent lead/N, for a prime p not dividing 6N;
    None when a numerator parameter is a nonpositive integer, so that the
    3F2 is a polynomial.

    Over d = 12N the numerator parameters are (a0 + 4Ni) / d, i = 0, 1, 2,
    with a0 = 12 lead - k0 N, and the denominator parameters are
    (12N + 12(lead - b)) / d for the other two exponents b/N.  Since p does
    not divide d, nu_p(F_m) adds nu_p(a + dk) over k < m for each numerator
    a, and subtracts the same for each denominator and nu_p(k + 1).  The
    factors that carry F_m into the component are units of Z_p[[q]] and a
    substitution invertible over Z_p, so the running minimum of this column
    is that of nu_p(a(n)), index by index.
    """
    N, d = t.N, 12 * t.N
    a0 = 12 * lead - t.k0 * N
    nums = [a0, a0 + 4 * N, a0 + 8 * N]
    if any(a <= 0 and a % d == 0 for a in nums):
        return None
    dens = [12 * N + 12 * (lead - b) for b in (t.A, t.B, t.C) if b != lead]
    steps = (
        sum(int_valuation(a + d * k, p) for a in nums)
        - sum(int_valuation(b + d * k, p) for b in dens)
        - int_valuation(k + 1, p)
        for k in range(T)
    )
    return list(accumulate(steps, initial=0))


def reference_modular_derivative(f: QExpansion, k) -> QExpansion:
    """D_k f = theta(f) - (k/12) E2 f from Fraction series operations."""
    r = f.exponent
    theta = QExpansion(r, ((r + n) * c for n, c in enumerate(f.coeffs)))
    e2f = QExpansion(r, _smulser(oracle_eisenstein(2, f.order), list(f.coeffs)))
    return theta + e2f.scale(Fraction(k) / -12)


def reference_ode_residual(sys: MDESystem, f: QExpansion) -> QExpansion:
    """Exact residual q^3 f''' + g2 q^2 f'' + g1 q f' + g0 f through
    T = min(f.order, sys.order).

    Write f = q^(s/e) sum a_n q^n / l with integers a_n and v_n = s + e n.
    Times 6N^3 e^3 l, the coefficient of q^(s/e + n) is the recursion's row
    sum over j <= n: the diagonal 6N^3 v_n (v_n - e)(v_n - 2e) a_n plus three
    integer convolutions, of h2 with N^2 e v (v - e) a, of h1 with N e^2 v a
    and of h0 with e^3 a.  It is identically zero for recursion output; for a
    perturbed series it isolates phi(s/e + n) times the perturbation.
    """
    T = min(f.order, sys.order)
    l = math.lcm(*(c.denominator for c in f.coeffs[: T + 1]))
    a = [c.numerator * (l // c.denominator) for c in f.coeffs[: T + 1]]
    s, e = f.exponent.numerator, f.exponent.denominator
    n_level = sys.triple.N
    v = [s + e * n for n in range(T + 1)]
    va = list(map(mul, v, a))
    terms = [6 * n_level**3 * x * (w - e) * (w - 2 * e) for x, w in zip(va, v)]
    for h, row in (
        (sys.h2, [n_level * n_level * e * x * (w - e) for x, w in zip(va, v)]),
        (sys.h1, [n_level * e * e * x for x in va]),
        (sys.h0, [e**3 * x for x in a]),
    ):
        terms = list(map(add, terms, _smulser(h[: T + 1], row)))
    den = 6 * n_level**3 * e**3 * l
    return QExpansion(f.exponent, (Fraction(x, den) for x in terms))


def brute_force_level(N: int) -> list[tuple[int, int, int]]:
    """All admissible (A, B, C) at level N by filtering every 3-subset."""
    out = []
    for a in range(N):
        for b in range(a + 1, N):
            for c in range(b + 1, N):
                if math.gcd(math.gcd(a, b), math.gcd(c, N)) != 1:
                    continue
                if (4 * (a + b + c)) % N != 0:
                    continue
                out.append((a, b, c))
    return out


def sample_triples(
    count: int, level_max: int, level_min: int = 3, seed: int = SEED
) -> list[RepTriple]:
    """Deterministic sample of admissible triples with level_min <= N <= level_max."""
    rng = random.Random(seed)
    out: list[RepTriple] = []
    while len(out) < count:
        N = rng.randrange(level_min, level_max + 1)
        if N < 3:
            continue
        step = N // gcd(4, N)
        a = rng.randrange(0, N - 2)
        b = rng.randrange(a + 1, N - 1)
        candidates = [
            c
            for c in range(b + 1, N)
            if (a + b + c) % step == 0
            and gcd(gcd(a, b), gcd(c, N)) == 1
        ]
        if not candidates:
            continue
        out.append(validate_triple(a, b, rng.choice(candidates), N))
    return out
