"""Eigenvalue data for the T-generator: validation, enumeration, families.

A representation is summarized by its T-eigenvalue exponents: three distinct
residues A < B < C modulo the level N, with gcd(A, B, C, N) = 1 so the level
is exact, and N | 4(A+B+C) so the minimal weight k0 = (4*sigma - 2N)/N is an
integer.  This module validates and enumerates such triples, constructs the
two induced-character families (from the index-2 and index-3 subgroups of the
modular group) from their integer character parameters, and classifies
triples for the unbounded-denominator search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence

from .arith import prime_factors, rational_str

__all__ = [
    "Classification",
    "FamilyResult",
    "InvalidTripleError",
    "RepTriple",
    "classify_triple",
    "enumerate_level",
    "gamma02_family",
    "gamma3_family",
    "ubd_criterion",
    "validate_triple",
]

LEVEL7_PRIMITIVE_CLASSES = frozenset({frozenset({1, 2, 4}), frozenset({3, 5, 6})})

PRIMITIVE_NOTE = "congruence kernel asserted without proof; not verified here"


class InvalidTripleError(ValueError):
    """Structured rejection; ``code`` names the violated invariant."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RepTriple:
    """Validated eigenvalue exponents (A, B, C) at level N, A < B < C."""

    A: int
    B: int
    C: int
    N: int

    def __post_init__(self) -> None:
        a, b, c, n = self.A, self.B, self.C, self.N
        if n < 1:
            raise InvalidTripleError("range", f"level must be >= 1, got {n}")
        if not (0 <= a <= n - 1 and 0 <= b <= n - 1 and 0 <= c <= n - 1):
            raise InvalidTripleError(
                "range",
                f"exponents must lie in [0, {n - 1}] for level {n}, got ({a}, {b}, {c})",
            )
        if not a < b < c:
            code = "distinct" if len({a, b, c}) < 3 else "range"
            raise InvalidTripleError(
                code, f"exponents must be distinct and ordered A < B < C, got ({a}, {b}, {c})"
            )
        g = math.gcd(math.gcd(a, b), math.gcd(c, n))
        if g != 1:
            raise InvalidTripleError(
                "gcd", f"gcd(A, B, C, N) must be 1 for an exact level, got {g}"
            )
        if (4 * (a + b + c)) % n != 0:
            raise InvalidTripleError(
                "weight",
                f"level {n} does not divide 4*sigma = {4 * (a + b + c)}, "
                "so the minimal weight is not an integer",
            )

    @property
    def sigma(self) -> int:
        """Sum of the exponents."""
        return self.A + self.B + self.C

    @property
    def omega(self) -> int:
        """Sum of pairwise products of the exponents."""
        return self.A * self.B + self.A * self.C + self.B * self.C

    @property
    def product(self) -> int:
        """Product of the exponents."""
        return self.A * self.B * self.C

    @property
    def k0(self) -> int:
        """Minimal weight (4*sigma - 2N)/N; integral by the level invariant."""
        return (4 * self.sigma - 2 * self.N) // self.N

    @property
    def exponents(self) -> tuple[Fraction, Fraction, Fraction]:
        """Leading exponents A/N, B/N, C/N as exact rationals."""
        return (
            Fraction(self.A, self.N),
            Fraction(self.B, self.N),
            Fraction(self.C, self.N),
        )

    def to_json_dict(self) -> dict:
        return {"A": self.A, "B": self.B, "C": self.C, "N": self.N, "k0": self.k0}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RepTriple":
        t = validate_triple(data["A"], data["B"], data["C"], data["N"])
        if type(k0 := data.get("k0", t.k0)) is not int or k0 != t.k0:
            raise InvalidTripleError("weight", f"k0 field {k0!r} disagrees with k0 = {t.k0}")
        return t


def validate_triple(A: int, B: int, C: int, N: int) -> RepTriple:
    """Canonical validated triple (exponents sorted), or a structured rejection.

    >>> validate_triple(1, 2, 4, 7).k0
    2
    >>> validate_triple(0, 1, 2, 5)
    Traceback (most recent call last):
        ...
    vvmf3.reps.InvalidTripleError: level 5 does not divide 4*sigma = 12, so the minimal weight is not an integer

    Each value must be of type int: a bool, float or str is rejected with
    code "type" before the exponents are sorted.
    """
    for name, v in (("A", A), ("B", B), ("C", C), ("N", N)):
        if type(v) is not int:
            raise InvalidTripleError(
                "type", f"{name} must be an int, got {type(v).__name__} {v!r}"
            )
    a, b, c = sorted((A, B, C))
    return RepTriple(a, b, c, N)


def _others(t: RepTriple, lead: int) -> tuple[int, int]:
    """The two exponents besides lead; ValueError if lead is not an exponent."""
    if lead not in (t.A, t.B, t.C):
        raise ValueError(f"lead exponent {lead} is not one of {(t.A, t.B, t.C)}")
    return (t.B, t.C) if lead == t.A else (t.A, t.C) if lead == t.B else (t.A, t.B)


def _admissible(N: int) -> list[tuple[int, int, int, int]]:
    """(a, b, c, k0) of every admissible triple at level N, sorted, unvalidated.
    N | 4 sigma iff step = N/gcd(4, N) divides sigma = a + b + c, so sigma runs
    over the multiples of step up to 3N - 6, and k0 = 4 sigma/N - 2 is constant
    on each such line.  There c = sigma - a - b, and a < b < c < N puts b in
    max(a + 1, sigma - a - N + 1)..(sigma - a - 1) // 2: one run per a.  As
    gcd(a, b, c, N) = gcd(a, b, sigma, N), b is tested only where
    gcd(a, sigma, N) > 1.  One sort merges the at most 12 sorted lines."""
    step = N // math.gcd(4, N)
    out: list[tuple[int, int, int, int]] = []
    for s in range(step, 3 * N - 5, step):
        k0 = (4 * s - 2 * N) // N
        for a, d in enumerate(range(s, s - s // 3, -1)):  # d = b + c, as 3a + 3 <= s
            lo, hi, g = max(a + 1, d - N + 1), (d - 1) // 2, math.gcd(a, s, N)
            if g == 1:
                out += zip(repeat(a), range(lo, hi + 1), range(d - lo, d - hi - 1, -1), repeat(k0))
            else:
                out += [(a, b, d - b, k0) for b in range(lo, hi + 1) if math.gcd(g, b) == 1]
    out.sort()
    return out


def enumerate_level(N: int) -> list[RepTriple]:
    """All admissible triples whose level is exactly N, sorted by (A, B, C).

    >>> [(t.A, t.B, t.C) for t in enumerate_level(7)]
    [(0, 1, 6), (0, 2, 5), (0, 3, 4), (1, 2, 4), (3, 5, 6)]
    >>> enumerate_level(2)
    []
    """
    if N < 1:
        raise ValueError(f"level must be >= 1, got {N}")
    return [RepTriple(a, b, c, N) for a, b, c, _ in _admissible(N)]


@dataclass(frozen=True)
class FamilyResult:
    """Induced triple plus family metadata.

    ``params`` holds the family function's arguments by name.  ``exponents``
    keeps the eigenvalue exponents in construction order (before sorting into
    the canonical triple).  ``formula_level`` is the closed-form
    level 8M/gcd(4, Mx) for the gamma02 family (None for gamma3) and must
    agree with ``triple.N``.  ``finite_image_pattern_m`` is M' when the
    finite-image pattern N = 2M' with two exponents M' apart (M' >= 4) holds.
    ``chi_exponents`` are the character values on the presentation generators,
    as exponents of e( ), so the defining relation can be checked exactly.
    """

    family: str
    params: dict[str, int]
    exponents: tuple[Fraction, ...]
    triple: RepTriple
    formula_level: Optional[int]
    finite_image_pattern_m: Optional[int]
    chi_exponents: dict[str, Fraction]

    @property
    def level(self) -> int:
        return self.triple.N

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": {"family": self.family, **self.params},
            "exponents": [rational_str(e) for e in self.exponents],
            "triple": self.triple.to_json_dict(),
            "level": self.level,
            "formula_level": self.formula_level,
            "finite_image_pattern_m": self.finite_image_pattern_m,
            "chi_exponents": {k: rational_str(v) for k, v in self.chi_exponents.items()},
        }


def _triple_from_exponents(exponents: list[Fraction]) -> RepTriple:
    level = 1
    for e in exponents:
        level = level * e.denominator // math.gcd(level, e.denominator)
    ints = sorted(int(e * level) for e in exponents)
    return validate_triple(ints[0], ints[1], ints[2], level)


def _check_quarter_turns(**turns: int) -> None:
    for name, v in turns.items():
        if v not in (0, 1, 2, 3):
            raise ValueError(f"{name} must be one of 0..3, got {v}")


def gamma02_family(M: int, A: int, x: int) -> FamilyResult:
    """Induced triple for the order-4 presentation <E, P1, P2 | E^4 = E P1 P2 = 1>.

    chi(P2) = e(A/M), chi(E) = e(x/4); the remaining two eigenvalues are the
    square roots of chi(P1) = chi(E)^-1 chi(P2)^-1, which differ by a sign.
    The exponents are placed over the common denominator N = 8M/gcd(4, Mx)
    and validated at that level; inputs whose eigenvalue orders degenerate to
    a proper divisor of N (possible in the 2-adic part) fail the gcd
    invariant and are rejected, as are eigenvalue collisions.  Needs M >= 1,
    0 <= A < M with gcd(A, M) = 1, and x in {0, 1, 2, 3}.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if not 0 <= A < M:
        raise ValueError(f"A must satisfy 0 <= A < M, got A={A}, M={M}")
    if math.gcd(A, M) != 1:
        raise ValueError(f"gcd(A, M) must be 1, got gcd({A}, {M})")
    _check_quarter_turns(x=x)
    e1 = Fraction(A, M) % 1
    e2 = Fraction(-(4 * A + M * x), 8 * M) % 1
    e3 = (e2 + Fraction(1, 2)) % 1
    if len({e1, e2, e3}) < 3:
        raise InvalidTripleError(
            "collision",
            f"eigenvalue exponents collide ({e1}, {e2}, {e3}); "
            "the induced representation is reducible",
        )
    level = 8 * M // math.gcd(4, M * x)
    scaled = sorted(e * level for e in (e1, e2, e3))
    # N * e_j is integral: gcd(4, Mx) divides both 4A + Mx and 4M.
    if any(v.denominator != 1 for v in scaled):
        raise ArithmeticError(f"level {level} does not clear the exponents {scaled}")
    triple = validate_triple(int(scaled[0]), int(scaled[1]), int(scaled[2]), level)
    return FamilyResult(
        family="gamma02",
        params={"M": M, "A": A, "x": x},
        exponents=(e1, e2, e3),
        triple=triple,
        formula_level=level,
        finite_image_pattern_m=classify_triple(triple).gamma02_pattern,
        chi_exponents={
            "E": Fraction(x, 4) % 1,
            "P1": (2 * e2) % 1,
            "P2": Fraction(A, M) % 1,
        },
    )


def gamma3_family(x0: int, x1: int, x2: int) -> FamilyResult:
    """Induced triple for the order-3 presentation with relation E0 E1 E2 P = 1.

    chi(E_j) = e(x_j/4); with x = -(x0+x1+x2), chi(P) = e(x/4) and the
    eigenvalue exponents are (x + 4j)/12 mod 1 for j = 0, 1, 2 (the three cube
    roots of chi(P)).  Levels always divide 12.  Each x_j is in {0, 1, 2, 3},
    and the three must agree mod 2.
    """
    _check_quarter_turns(x0=x0, x1=x1, x2=x2)
    if not (x0 % 2 == x1 % 2 == x2 % 2):
        raise InvalidTripleError(
            "parity", f"quarter-turns must agree mod 2, got ({x0}, {x1}, {x2})"
        )
    x = -(x0 + x1 + x2)
    exps = tuple(Fraction(x + 4 * j, 12) % 1 for j in range(3))
    triple = _triple_from_exponents(list(exps))
    return FamilyResult(
        family="gamma3",
        params={"x0": x0, "x1": x1, "x2": x2},
        exponents=exps,
        triple=triple,
        formula_level=None,
        finite_image_pattern_m=classify_triple(triple).gamma02_pattern,
        chi_exponents={
            "E0": Fraction(x0, 4) % 1,
            "E1": Fraction(x1, 4) % 1,
            "E2": Fraction(x2, 4) % 1,
            "P": Fraction(x, 4) % 1,
        },
    )


@dataclass(frozen=True)
class Classification:
    """Flags driving the bounded/unbounded denominator expectation."""

    congruence_by_small_level: bool
    primitive_level7: bool
    gamma02_pattern: Optional[int]
    ubd_primes: tuple[int, ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "congruence_by_small_level": self.congruence_by_small_level,
            "primitive_level7": self.primitive_level7,
            "gamma02_pattern": self.gamma02_pattern,
            "ubd_primes": list(self.ubd_primes),
            "notes": list(self.notes),
        }


# The covered cases of each prime p <= 7, in the order they are tried:
# (case_id, subcase, predicted nu_p(z_n), test on (N, omega, product)).  Every
# prime above 7 is case 1 with prediction 0.
_PRIME_CASES = {
    2: ((8, None, 4, lambda n, om, pi: n % 32 == 0),),
    3: ((6, None, 1, lambda n, om, pi: om % 3 != 0 and n % 9 == 0),
        # 3|omega with 27|N forces every exponent into one nonzero residue
        # class mod 3, so z_n = 24*lead*[10*lead*(Y+Z) + 31*Y*Z] mod 81 has
        # one factor 3 from 24 and exactly two from the bracket for some
        # labeling (all three brackets >= 3 would need the exponents congruent
        # mod 9, impossible with nu_3(sigma) >= 3): the constant is 3.
        (7, None, 3, lambda n, om, pi: om % 3 == 0 and n % 27 == 0)),
    5: ((4, None, 0, lambda n, om, pi: pi % 5 != 0),
        (5, None, 1, lambda n, om, pi: n % 25 == 0)),
    7: ((2, None, 0, lambda n, om, pi: pi % 7 == 0),
        (3, "a", 1, lambda n, om, pi: n % 49 == 0 and om % 7 == 0),
        (3, "b", 0, lambda n, om, pi: n % 49 == 0)),
}

# Levels dividing this number never pass the criterion: each exponent is twice
# the largest nu_p(z_n) that a case of that prime predicts.
_BOUNDED_PART = math.prod(p ** (2 * max(v for _, _, v, _ in cases))
                          for p, cases in _PRIME_CASES.items())


def _case_table(t: RepTriple, p: int) -> Optional[tuple[int, Optional[str], int]]:
    """(case_id, subcase, predicted nu_p(z_n)) of the first case of the prime p
    whose test holds, or None when not covered."""
    if p > 7:
        return (1, None, 0)
    return next(((case_id, subcase, predicted) for case_id, subcase, predicted, test
                 in _PRIME_CASES[p] if test(t.N, t.omega, t.product)), None)


def ubd_criterion(N: int) -> list[int]:
    """Primes dividing N / gcd(N, 2^8 * 3^6 * 5^2 * 7^2), sorted.

    Every listed prime admits a covered case whose hypothesis holds, so each
    certifies unbounded denominators for every admissible triple at level N.

    >>> ubd_criterion(22), ubd_criterion(48), ubd_criterion(512)
    ([11], [], [2])
    """
    if N < 1:
        raise ValueError(f"level must be >= 1, got {N}")
    rest = N // math.gcd(N, _BOUNDED_PART)
    return [p for p, _ in prime_factors(rest)]


def _classified(
    N: int, rows: Sequence[tuple[int, int, int, int]]
) -> tuple[list[Classification], list[int]]:
    """The level-N classifications, each built once, and each row's index
    among them; rows are _admissible's (a, b, c, k0), whose gcd and k0 its
    sigma-lines settle.  classes[0] is plain; classes[1] is the finite-image
    pattern (N = 2M', M' >= 4, two exponents M' apart) or, at level 7, the
    primitive classes."""
    primes = tuple(ubd_criterion(N))
    classes = [Classification(N < 6, False, None, primes, ())]
    m = N // 2 if N % 2 == 0 and N >= 8 else 0
    if N != 7 and not m:
        return classes, [0] * len(rows)
    if N == 7:
        classes.append(Classification(N < 6, True, None, primes, (PRIMITIVE_NOTE,)))
        return classes, [int(frozenset(r[:3]) in LEVEL7_PRIMITIVE_CLASSES) for r in rows]
    classes.append(Classification(N < 6, False, m, primes, ()))
    return classes, [1 if m in (b - a, c - b, c - a) else 0 for a, b, c, _ in rows]


def classify_triple(t: RepTriple) -> Classification:
    """Classification flags for a validated triple.

    >>> classify_triple(validate_triple(1, 3, 7, 11)).ubd_primes
    (11,)
    """
    classes, [i] = _classified(t.N, [(t.A, t.B, t.C, t.k0)])
    return classes[i]
