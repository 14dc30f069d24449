import itertools
import math
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vvmf3.reps as reps
from vvmf3.reps import (
    InvalidTripleError,
    RepTriple,
    classify_triple,
    enumerate_level,
    gamma02_family,
    gamma3_family,
    validate_triple,
)
from conftest import brute_force_level


def test_validate_sorts_and_derives():
    t = validate_triple(4, 1, 2, 7)
    assert (t.A, t.B, t.C, t.N) == (1, 2, 4, 7)
    assert t.sigma == 7 and t.omega == 14 and t.product == 8
    assert t.k0 == 2
    assert t.exponents == (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))


def test_validation_error_codes():
    cases = {
        (0, 1, 7, 7): "range",
        (1, 1, 2, 7): "distinct",
        (0, 2, 4, 8): "gcd",
        (0, 1, 2, 5): "weight",
        (0, 1, 2, 0): "range",
    }
    for (a, b, c, n), code in cases.items():
        with pytest.raises(InvalidTripleError) as exc_info:
            validate_triple(a, b, c, n)
        assert exc_info.value.code == code, (a, b, c, n)


def test_triple_json_round_trip():
    t = validate_triple(1, 3, 7, 11)
    data = t.to_json_dict()
    assert data == {"A": 1, "B": 3, "C": 7, "N": 11, "k0": 2}
    assert RepTriple.from_json_dict(data) == t


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_triple_from_json_rejects_non_int_values(bad):
    for key in ("A", "N"):
        data = {"A": 1, "B": 2, "C": 4, "N": 7, key: bad}
        with pytest.raises(InvalidTripleError) as exc_info:
            RepTriple.from_json_dict(data)
        assert exc_info.value.code == "type", data


@pytest.mark.parametrize("k0", [5, 3, -2, True, 2.0, "2"])
def test_triple_from_json_rejects_k0_that_contradicts_the_triple(k0):
    # (1, 2, 4, 7) has k0 = 2; a stored k0 is checked, and may be left out.
    data = {"A": 1, "B": 2, "C": 4, "N": 7}
    assert RepTriple.from_json_dict(data) == RepTriple.from_json_dict({**data, "k0": 2})
    with pytest.raises(InvalidTripleError) as exc_info:
        RepTriple.from_json_dict({**data, "k0": k0})
    assert exc_info.value.code == "weight"


def test_enumerate_level_7_pinned():
    got = [(t.A, t.B, t.C) for t in enumerate_level(7)]
    assert got == [(0, 1, 6), (0, 2, 5), (0, 3, 4), (1, 2, 4), (3, 5, 6)]


def test_enumerate_small_levels_empty():
    assert enumerate_level(1) == []
    assert enumerate_level(2) == []
    with pytest.raises(ValueError):
        enumerate_level(0)


def test_enumerate_matches_brute_force_small_levels():
    for N in range(1, 31):
        got = [(t.A, t.B, t.C) for t in enumerate_level(N)]
        assert got == brute_force_level(N), N
        assert got == sorted(got)


@given(st.integers(min_value=1, max_value=120))
@settings(max_examples=40, deadline=None)
def test_enumerate_matches_brute_force_random_levels(N):
    assert [(t.A, t.B, t.C) for t in enumerate_level(N)] == brute_force_level(N)


def test_admissible_rows_validate_unchanged():
    # scan takes its rows from the enumerator without building a RepTriple,
    # so nothing else re-validates them, nor the k0 it prints.  The totals are
    # the populations of the criterion-06 sweep (N <= 60) and of the scan
    # benchmark (N <= 100).
    counts = [0] * 101
    for N in range(1, 101):
        for a, b, c, k0 in reps._admissible(N):
            t = validate_triple(a, b, c, N)
            assert (t.A, t.B, t.C, t.k0) == (a, b, c, k0), N
            counts[N] += 1
    assert sum(counts[:61]) == 19751
    assert sum(counts) == 92124


def test_admissible_matches_brute_force_with_k0():
    # Every residue of N mod 4 (so every step N/gcd(4, N)) and level 7,
    # against every 3-subset; at 50 of these levels the gcd test on b rejects
    # a triple whose sigma lies on a line.
    rejecting = 0
    for N in range(1, 73):
        want = [(a, b, c, (4 * (a + b + c) - 2 * N) // N) for a, b, c in brute_force_level(N)]
        assert reps._admissible(N) == want, N
        on_lines = sum(4 * sum(t) % N == 0 for t in itertools.combinations(range(N), 3))
        rejecting += on_lines > len(want)
    assert rejecting == 50


def test_family_argument_validation():
    cases = (
        (lambda: gamma02_family(0, 0, 0), "M must be >= 1, got 0"),
        (lambda: gamma02_family(4, 4, 0), "A must satisfy 0 <= A < M, got A=4, M=4"),
        (lambda: gamma02_family(4, 2, 0), "gcd(A, M) must be 1, got gcd(2, 4)"),
        (lambda: gamma02_family(4, 1, 5), "x must be one of 0..3, got 5"),
        (lambda: gamma3_family(0, 0, 4), "x2 must be one of 0..3, got 4"),
        (lambda: gamma3_family(0, 1, 0), "quarter-turns must agree mod 2, got (0, 1, 0)"),
    )
    for call, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_gamma02_pinned_example():
    res = gamma02_family(4, 1, 0)
    t = res.triple
    assert (t.A, t.B, t.C, t.N) == (2, 3, 7, 8)
    assert res.formula_level == 8 == res.level
    assert res.finite_image_pattern_m == 4
    # C - B = 7 - 3 = 4 = M': the two half-period exponents.
    assert t.C - t.B == 4


def test_gamma02_collision_rejected():
    with pytest.raises(InvalidTripleError) as exc_info:
        gamma02_family(4, 1, 1)
    assert exc_info.value.code == "collision"


def test_gamma02_grid_invariants():
    valid = 0
    rejected_by_code: dict[str, int] = {}
    for m in range(1, 13):
        for a in range(m):
            if gcd(a, m) != 1:
                continue
            for x in range(4):
                try:
                    res = gamma02_family(m, a, x)
                except InvalidTripleError as exc:
                    assert exc.code in ("collision", "gcd")
                    rejected_by_code[exc.code] = rejected_by_code.get(exc.code, 0) + 1
                    continue
                valid += 1
                e1, e2, e3 = res.exponents
                # lambda3 = -lambda2: exponents differ by exactly 1/2.
                assert (e3 - e2) % 1 == Fraction(1, 2)
                # chi(E) chi(P1) chi(P2) = 1: exponents sum to an integer.
                chi = res.chi_exponents
                assert (chi["E"] + chi["P1"] + chi["P2"]) % 1 == 0
                # lcm of eigenvalue orders matches the closed-form level.
                orders = [e.denominator for e in res.exponents]
                lcm = math.lcm(*orders)
                assert lcm == 8 * m // gcd(4, m * x)
                assert res.formula_level == lcm == res.triple.N
    assert valid > 150
    # Degenerate inputs where the eigenvalue orders drop below the
    # closed-form level are rejected by the gcd invariant.
    assert rejected_by_code.get("gcd", 0) == 10


def test_gamma02_degenerate_level_rejected():
    for m, a, x in ((4, 1, 3), (10, 1, 2), (12, 1, 1)):
        with pytest.raises(InvalidTripleError) as exc_info:
            gamma02_family(m, a, x)
        assert exc_info.value.code == "gcd"


def test_gamma3_pinned_examples():
    t0 = gamma3_family(0, 0, 0).triple
    assert (t0.A, t0.B, t0.C, t0.N) == (0, 1, 2, 3)
    t2 = gamma3_family(2, 2, 2).triple
    assert (t2.A, t2.B, t2.C, t2.N) == (1, 3, 5, 6)


def test_gamma3_parity_rejected():
    with pytest.raises(InvalidTripleError) as exc_info:
        gamma3_family(0, 1, 0)
    assert exc_info.value.code == "parity"


def test_gamma3_grid_levels_divide_12():
    for x0 in range(4):
        for x1 in range(4):
            for x2 in range(4):
                if not (x0 % 2 == x1 % 2 == x2 % 2):
                    continue
                res = gamma3_family(x0, x1, x2)
                assert 12 % res.triple.N == 0
                chi = res.chi_exponents
                assert (chi["E0"] + chi["E1"] + chi["E2"] + chi["P"]) % 1 == 0


def test_family_weight_always_integral():
    # Family outputs are always admissible; constructing the triple would
    # raise otherwise, so a smoke pass over both grids is the assertion.
    count = 0
    for m in range(1, 9):
        for a in range(m):
            if gcd(a, m) != 1:
                continue
            for x in range(4):
                try:
                    gamma02_family(m, a, x)
                    count += 1
                except InvalidTripleError:
                    pass
    assert count > 50


def test_classify_small_level_congruence():
    cls = classify_triple(validate_triple(0, 1, 2, 3))
    assert cls.congruence_by_small_level
    assert not cls.primitive_level7
    assert cls.ubd_primes == ()


def test_classify_level7_primitives():
    for trip in ((1, 2, 4, 7), (3, 5, 6, 7)):
        cls = classify_triple(validate_triple(*trip))
        assert cls.primitive_level7
        assert cls.ubd_primes == ()
        assert cls.notes
    for trip in ((0, 1, 6, 7), (0, 2, 5, 7), (0, 3, 4, 7)):
        cls = classify_triple(validate_triple(*trip))
        assert not cls.primitive_level7


def test_classify_pattern_and_ubd():
    cls = classify_triple(validate_triple(2, 3, 7, 8))
    assert cls.gamma02_pattern == 4
    cls11 = classify_triple(validate_triple(1, 3, 7, 11))
    assert cls11.ubd_primes == (11,)
    assert cls11.gamma02_pattern is None


def test_family_json_round_trip():
    res = gamma02_family(4, 1, 0)
    data = res.to_json_dict()
    assert data["triple"]["N"] == 8
    assert data["params"] == {"family": "gamma02", "M": 4, "A": 1, "x": 0}
    assert RepTriple.from_json_dict(data["triple"]) == res.triple


def test_classify_level_matches_classify_triple(monkeypatch):
    levels = []

    def counting(N):
        levels.append(N)
        return real(N)

    real = reps.ubd_criterion
    monkeypatch.setattr(reps, "ubd_criterion", counting)
    for N in range(1, 121):
        # scan's rows: the level's classifications and an index per triple.
        rows = reps._admissible(N)
        classes, idx = reps._classified(N, rows)
        assert levels == [N]  # the level-only cells are computed once
        assert len(idx) == len(rows) and set(idx) <= set(range(len(classes)))
        pairs = [(RepTriple(a, b, c, N), classes[i]) for (a, b, c, _), i in zip(rows, idx)]
        assert pairs == [(t, classify_triple(t)) for t in enumerate_level(N)]
        shared = {}
        for _, cls in pairs:
            assert shared.setdefault(cls, cls) is cls
        levels.clear()


def test_classify_triple_matches_restated_rules():
    # The classification rules restated without reps._classified, at every
    # triple of every level N <= 60: small levels N < 6; the finite-image
    # pattern N = 2M', M' >= 4, with two exponents M' apart; level 7's
    # primitive classes {1, 2, 4} and {3, 5, 6} with their note; and the
    # criterion primes, by trial division of N / gcd(N, 2^8 3^6 5^2 7^2).
    def trial_division_primes(n):
        primes, d = [], 2
        while d * d <= n:
            if n % d == 0:
                primes.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        return tuple(primes + [n] * (n > 1))

    flagged = {"pattern": 0, "primitive": 0, "primes": 0}
    for N in range(1, 61):
        primes = trial_division_primes(N // gcd(N, 2**8 * 3**6 * 5**2 * 7**2))
        m = N // 2 if N % 2 == 0 and N // 2 >= 4 else None
        for a, b, c in brute_force_level(N):
            pattern = m if m is not None and m in (b - a, c - a, c - b) else None
            primitive = N == 7 and {a, b, c} in ({1, 2, 4}, {3, 5, 6})
            cls = classify_triple(validate_triple(a, b, c, N))
            assert (cls.congruence_by_small_level, cls.primitive_level7, cls.gamma02_pattern,
                    cls.ubd_primes, cls.notes) \
                == (N < 6, primitive, pattern, primes,
                    (reps.PRIMITIVE_NOTE,) if primitive else ()), (a, b, c, N)
            flagged["pattern"] += pattern is not None
            flagged["primitive"] += primitive
            flagged["primes"] += bool(primes)
    assert flagged["primitive"] == 2
    assert flagged["pattern"] > 0 and flagged["primes"] == 9_308
