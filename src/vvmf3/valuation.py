"""p-adic analysis of the recursion coefficients.

The engine behind the unbounded-denominator verdicts: the integers
z_n = N^3 * phi_1(A/N + n) satisfy z_n = z_0 + 24 N n L(n), with L an integer
polynomial, so nu_p(z_n) = nu_p(z_0) for every n once nu_p(z_0) < nu_p(24N).
When additionally nu_p(N) > 2 nu_p(z_0) the coefficient valuations obey the
exact law

    nu_p(a(n)) = n * delta - nu_p(prod_{k=1..n} k * lambda(k)),

delta = nu_p(z_n) - nu_p(N) < 0, a strictly decreasing negative function of n.
The recursion's c_k = 6N k lambda(k) = 6N * k * (Nk + a - b) * (Nk + a - c),
a = lead, is a product of four factors, three of them linear in k; p^e
divides each on one arithmetic progression of k, which _hits yields as a
range.  predicted_valuation counts the ranges' terms, O(log_p n) per form;
verify_formula walks them to build the column, one list of increments.
The column depends on p, delta, n and what the progressions read of each form
(for p not dividing (a - b)(a - c), on p, delta and n alone), so _law_rows
keeps the finished rows of the last _LAW_CACHE_SIZE = 128 such keys, and
applicable reports with one key share one immutable rows tuple: the 9,308
criterion-06 pairs at one n have 61 keys.  It holds at most 128 row tuples,
so 128 * n_max rows at worst, n_max the largest n_max asked for.
Since a(n) = anum_n / (c_1 ... c_n) for integers anum_n, the law is equivalent
to nu_p(anum_n) = n * shift, shift = delta + nu_p(6N) = nu_p(z_0) + nu_p(6).
The ultrametric inequality proves this for every n: in the recursion for
anum_n the term through P_1(j) = 6 z_j has valuation exactly n * shift and
every term through a later P_m a higher one (verify_formula carries the
proof).  So verify_formula reports the law's column without running the
recursion; where the law is inapplicable, observed valuations come from the
reduced coefficients of component_series.
A prime passing reps.ubd_criterion therefore certifies unbounded
denominators at desk scale; the module also profiles observed denominators
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Iterable, Iterator, Optional

from .arith import INFINITY, ValuationValue, int_valuation, is_prime, prime_factors
from .mde import build_mde, component_series
from .qseries import QExpansion
from .reps import RepTriple, _case_table

__all__ = [
    "DenominatorProfile",
    "FormulaInapplicable",
    "PrimeCase",
    "PrimeStats",
    "ValuationReport",
    "classify_prime",
    "denominator_profile",
    "predicted_valuation",
    "verify_formula",
    "z_n_value",
]

DEFAULT_N_MAX = 100

# Row tuples kept by _law_rows: about twice the 61 keys of the 9,308
# criterion pairs with N <= 60 at one n.
_LAW_CACHE_SIZE = 128

Rows = tuple[tuple[int, ValuationValue, Optional[int]], ...]


class FormulaInapplicable(Exception):
    """The valuation law makes no claim for this input; not an error."""


@dataclass(frozen=True)
class PrimeCase:
    """Classifier outcome for a prime dividing the level.

    case_id is 1..8 for a covered case (subcase 'a' or 'b' refines case 3) and
    None when no case applies.  lead is the smallest exponent whose z_0 has
    the predicted valuation, or None when there is none; every covered case
    predicts less than nu_p(24N), so nu_p(z_n) then equals it for every n.
    delta = predicted - nu_p(N), negative whenever the coefficient law's
    hypothesis nu_p(N) > 2 nu_p(z_0) holds.
    """

    prime: int
    case_id: Optional[int]
    subcase: Optional[str]
    predicted_z_valuation: Optional[int]
    lead: Optional[int]
    delta: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "case": self.case_id if self.case_id is not None else "not covered",
            "subcase": self.subcase,
            "predicted_z_valuation": self.predicted_z_valuation,
            "lead": self.lead,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class ValuationReport:
    """Observed versus predicted nu_p(a(n)) rows plus a verdict.

    verdict is "formula-verified" when the case is covered and the
    nu_p(N) > 2 nu_p(z_0) hypothesis holds: the law is then proved for every
    n, and the rows are its column.  "inapplicable" means the law makes no
    claim (uncovered case, no leading role, or hypothesis failure); the rows
    then carry observations with predicted = None.  An applicable report's
    rows may be shared (see the module docstring).
    """

    triple: RepTriple
    prime: int
    lead: int
    rows: Rows
    verdict: str
    case: PrimeCase
    applicable: bool
    reason: Optional[str]

    def to_json_dict(self) -> dict:
        return {
            "triple": self.triple.to_json_dict(),
            "prime": self.prime,
            "lead": self.lead,
            "verdict": self.verdict,
            "applicable": self.applicable,
            "reason": self.reason,
            "case": self.case.to_json_dict(),
            "rows": [
                {
                    "n": n,
                    "observed": "inf" if observed == INFINITY else observed,
                    "predicted": predicted,
                }
                for n, observed, predicted in self.rows
            ],
        }


def z_n_value(t: RepTriple, lead: int, n: int) -> int:
    """The integer N^3 * phi_1(lead/N + n); symmetric in the other exponents.

    z_n - z_0 = 24 N n (10 omega + sigma (2 lead + N n - N) - 2 sigma (2 sigma - N)).

    >>> from .reps import validate_triple
    >>> z_n_value(validate_triple(1, 2, 4, 7), 1, 0)
    504
    """
    if n < 0:
        raise ValueError(f"z_n_value needs n >= 0, got {n}")
    if lead not in (t.A, t.B, t.C):
        raise ValueError(f"lead exponent {lead} is not one of {(t.A, t.B, t.C)}")
    sig, om, pi, big_n = t.sigma, t.omega, t.product, t.N
    u = lead + big_n * n
    return (
        24 * (10 * om * big_n * n + sig * u * (u - big_n))
        + 8 * (2 * sig - big_n) * (sig * (4 * sig - big_n) - 15 * om - 6 * sig * u)
        + 240 * lead * om
        + 504 * pi
    )


def classify_prime(t: RepTriple, p: int) -> PrimeCase:
    """Match a prime divisor of the level against the eight covered cases.

    The structural conditions involve only p, N, omega, and the exponent
    product, so they are labeling-independent; the leading role is then the
    smallest exponent whose z_0 has the predicted valuation, which by
    z_n = z_0 mod 24N is the valuation of every z_n.
    """
    if not is_prime(p):
        raise ValueError(f"classify_prime needs a prime, got {p}")
    if t.N % p != 0:
        raise ValueError(f"{p} does not divide the level {t.N}")
    case_id = subcase = predicted = lead = delta = None
    entry = _case_table(t, p)
    if entry is not None:
        case_id, subcase, predicted = entry
        lead = next(
            (e for e in (t.A, t.B, t.C) if int_valuation(z_n_value(t, e, 0), p) == predicted),
            None,
        )
        delta = predicted - int_valuation(t.N, p)
    return PrimeCase(p, case_id, subcase, predicted, lead, delta)


def _delta_for_lead(t: RepTriple, case: PrimeCase, lead: Optional[int]) -> tuple[int, int]:
    """(delta, nu_p(N)) for the given leading role, or FormulaInapplicable.

    The hypothesis nu_p(N) > 2 nu_p(z_0) gives nu_p(z_0) < nu_p(N), so
    nu_p(z_n) = nu_p(z_0) for every n.  The case's own lead was chosen for
    nu_p(z_0) = case.predicted_z_valuation, so only another lead evaluates z_0.
    """
    p = case.prime
    if case.case_id is None:
        raise FormulaInapplicable(f"no covered case for p = {p} at level {t.N}")
    if lead is None:
        raise FormulaInapplicable("no leading role attains the predicted constant z-valuation")
    if lead == case.lead:
        vz = case.predicted_z_valuation
    else:
        vz = int_valuation(z_n_value(t, lead, 0), p)
    nu_level = case.predicted_z_valuation - case.delta
    if not nu_level > 2 * vz:
        raise FormulaInapplicable(
            f"hypothesis nu_p(N) > 2 nu_p(z_0) fails: {nu_level} <= {2 * vz}"
        )
    return vz - nu_level, nu_level


def _form_key(alpha: int, beta: int, p: int, va: int) -> tuple[int, int, int]:
    """What _hits reads of alpha k + beta, alpha >= 1, va = nu_p(alpha), no
    term zero: (v, 0, 0) when v = nu_p(beta) is below va, a constant column;
    else (va, alpha', beta'), the quotients by p^va.  The form k is (0, 1, 0),
    and Nk + a - b with p not dividing a - b is (0, 0, 0)."""
    v = min(va, int_valuation(beta, p)) if beta else va
    if v < va:
        return v, 0, 0
    q = p**va
    return va, alpha // q, beta // q


def _forms(t: RepTriple, lead: int, p: int, nu_level: int) -> tuple[tuple[int, int, int], ...]:
    """The keys of the forms k, Nk + a - b, Nk + a - c of c_k = 6N * k *
    (Nk + a - b) * (Nk + a - c), a = lead, nu_level = nu_p(N)."""
    b, c = (e for e in (t.A, t.B, t.C) if e != lead)
    return (0, 1, 0), _form_key(t.N, lead - b, p, nu_level), _form_key(t.N, lead - c, p, nu_level)


def _hits(key: tuple[int, int, int], p: int, n: int) -> Iterator[range]:
    """For the form of key (v, alpha', beta') = _form_key(alpha, beta, p, va),
    nu_p(alpha k + beta) = v + #{e >= 1 : p^e | alpha' k + beta'}: for each
    p^e <= alpha' n + |beta'| the indices k - 1, k = 1..n, of the one
    progression k = -beta' / alpha' mod p^e (none for alpha' = 0)."""
    _, alpha, beta = key
    bound, q = alpha * n + abs(beta), p
    while q <= bound:
        yield range((-beta * pow(alpha, -1, q) - 1) % q, n, q)
        q *= p


@lru_cache(maxsize=_LAW_CACHE_SIZE)
def _law_rows(p: int, delta: int, n: int, forms: tuple[tuple[int, int, int], ...]) -> Rows:
    """The rows (m, v_m, v_m), m = 1..n, of the law's column v_m = m * delta -
    D_m, D_m the sum over k <= m of nu_p of the forms: the increments start at
    delta minus the forms' constant valuations, lose 1 along each progression
    of _hits, and are accumulated once."""
    inc = [delta - sum(key[0] for key in forms)] * n
    for key in forms:
        for hits in _hits(key, p, n):
            for i in hits:
                inc[i] -= 1
    column = list(accumulate(inc))
    return tuple(zip(range(1, n + 1), column, column))


def _coeff_valuations(fracs: Iterable[tuple[int, int]], p: int) -> list[ValuationValue]:
    """nu_p(a / d) for each reduced (a, d) in fracs and a known prime p: p
    divides at most one of a and d, and zero (d = 1) gives INFINITY."""
    return [-int_valuation(d, p) if d % p == 0 else int_valuation(a, p) for a, d in fracs]


def predicted_valuation(t: RepTriple, p: int, lead: int, n: int) -> int:
    """The law's value n*delta - nu_p(prod_{k<=n} k lambda(k)), counted from
    the progressions of _hits without building the column.

    Raises FormulaInapplicable when no covered case applies or the hypothesis
    fails for this lead.

    >>> from .reps import validate_triple
    >>> predicted_valuation(validate_triple(1, 3, 7, 11), 11, 1, 1)
    -1
    """
    if n < 1:
        raise ValueError(f"predicted_valuation needs n >= 1, got {n}")
    delta, nu_level = _delta_for_lead(t, classify_prime(t, p), lead)
    return n * delta - sum(key[0] * n + sum(map(len, _hits(key, p, n)))
                           for key in _forms(t, lead, p, nu_level))


def verify_formula(t: RepTriple, p: int, n_max: int = DEFAULT_N_MAX) -> ValuationReport:
    """Compare observed nu_p(a(n)) against the law for 1 <= n <= n_max (>= 1).

    Where the law applies it holds for every n >= 1, so the observed column
    is the law's column and n_max only bounds the rows reported.  Write
    a(n) = anum_n / (c_1 ... c_n) and s = shift = nu_p(z_0) + nu_p(6); the law
    is nu_p(anum_n) = n s.  With e = nu_p(6N) and
    P_m(j) = 6N^3 phi_m(lead/N + j), the recursion reads

        anum_n = -sum_{j<n} anum_j P_{n-j}(j) c_{j+1} ... c_{n-1}.

    Take nu_p(anum_j) = j s for j < n; every c_k has nu_p(c_k) >= e, so the
    term of j = n - m has valuation at least (n - m) s + nu_p(P_m(n - m)) +
    (m - 1) e.  For m = 1 it is exactly n s: P_1(j) = 6 z_j is a polynomial
    identity and nu_p(z_j) = nu_p(z_0), so nu_p(P_1(j)) = s.  Every term of
    m >= 2 exceeds n s:

    - for p >= 5 the hypothesis nu_p(N) > 2 nu_p(z_0) is e > 2s, so
      (m - 1) e > m s;
    - for p = 2, 3 it gives e >= 2s, and 6 divides every h_j[m] with m >= 1
      (h_j[m] / 6 is an integer polynomial in N, the triple's invariants, m
      and sigma_1, sigma_3, sigma_5 of m), so p | P_m(j) and
      (m - 1) e + 1 > m s.

    By the ultrametric inequality nu_p(anum_n) = n s; tests/test_sympy_oracle.py
    expands both identities.  Where the law is inapplicable the observed
    column is read from the reduced coefficients of component_series.
    """
    if n_max < 1:
        raise ValueError(f"verify_formula needs n_max >= 1, got {n_max}")
    case = classify_prime(t, p)
    lead = case.lead if case.lead is not None else t.A
    try:
        delta, nu_level = _delta_for_lead(t, case, case.lead)
    except FormulaInapplicable as exc:
        applicable, reason = False, str(exc)
        series = component_series(build_mde(t, n_max), lead)
        observed = _coeff_valuations(map(Fraction.as_integer_ratio, series.coeffs[1:]), p)
        rows = tuple(zip(range(1, n_max + 1), observed, [None] * n_max))
    else:
        applicable, reason = True, None
        rows = _law_rows(p, delta, n_max, _forms(t, lead, p, nu_level))
    return ValuationReport(
        triple=t,
        prime=p,
        lead=lead,
        rows=rows,
        verdict="formula-verified" if applicable else "inapplicable",
        case=case,
        applicable=applicable,
        reason=reason,
    )


@dataclass(frozen=True)
class PrimeStats:
    """Valuation statistics for one prime over a coefficient window."""

    prime: int
    min_valuation: int
    new_min_count: int
    last_new_min_index: int
    strictly_decreasing: bool


@dataclass(frozen=True)
class DenominatorProfile:
    """Per-prime denominator statistics plus an overall verdict.

    Verdicts are window-scoped observations, never theorems: "all-integral"
    (no denominators at all), "decreasing-unbounded-pattern" (some prime keeps
    attaining new strict minima into the last tenth of the window, reaching
    at most -3), or "bounded-in-window" (everything else).
    """

    window: int
    stats: tuple[PrimeStats, ...]
    verdict: str


def _prime_stats(p: int, pairs: Iterable[tuple[int, ValuationValue]], T: int) -> PrimeStats:
    """Statistics of the valuations v of the coefficients a(n), from (n, v)
    pairs in increasing n over the window 0..T that leave out no new minimum.
    The valuations strictly decrease exactly when every n >= 1 is one."""
    running = INFINITY
    last_new_min = new_min_count = later_new_mins = 0
    for n, v in pairs:
        if v < running:
            running, last_new_min = v, n
            new_min_count += 1
            later_new_mins += n > 0
    return PrimeStats(
        prime=p,
        min_valuation=running,
        new_min_count=new_min_count,
        last_new_min_index=last_new_min,
        strictly_decreasing=later_new_mins == T,
    )


def _late_new_minimum(s: PrimeStats, T: int) -> bool:
    """The decreasing-pattern rule: the minimum is at most -3 and was last
    lowered at n >= T - max(1, T // 10), in the last tenth of the window."""
    return s.min_valuation <= -3 and s.last_new_min_index >= T - max(1, T // 10)


def denominator_profile(f: QExpansion) -> DenominatorProfile:
    """Profile the denominators of a series through its order; profile
    f.truncate(T) for a shorter window.

    With L_n the lcm of the reduced denominators d_0..d_n and r_n =
    L_n / L_(n-1) = d_n / gcd(d_n, L_(n-1)): once p has divided some d_j, the
    running minimum of nu_p(a(j)) over j <= n is -nu_p(L_n), so n is a new
    minimum at p exactly when p | r_n, lower by nu_p(r_n); only the r_n are
    factored.  Earlier valuations are >= 0 (INFINITY for zero) and can move
    the statistics only while the running minimum is > 0: numerator
    valuations are read there, until one is <= 0 (nu_p(1) = 0 when a(0) = 1).
    """
    T = f.order
    fracs = [c.as_integer_ratio() for c in f.coeffs]

    found: dict[int, list[tuple[int, ValuationValue]]] = {}
    lcm = 1
    for n, (_, d) in enumerate(fracs):
        r = d // gcd(d, lcm)
        lcm *= r
        for p, e in prime_factors(r):
            pairs = found.setdefault(p, [])
            pairs.append((n, (pairs[-1][1] if pairs else 0) - e))

    stats = []
    for p in sorted(found):
        head = []
        for n in range(found[p][0][0]):
            head.append((n, int_valuation(fracs[n][0], p)))
            if head[-1][1] <= 0:
                break
        stats.append(_prime_stats(p, head + found[p], T))
    if not stats:
        verdict = "all-integral"
    elif any(_late_new_minimum(s, T) for s in stats):
        verdict = "decreasing-unbounded-pattern"
    else:
        verdict = "bounded-in-window"
    return DenominatorProfile(window=T, stats=tuple(stats), verdict=verdict)
