"""Truncated q-expansions with fractional leading exponents.

A :class:`QExpansion` is the exact object q^r * (c(0) + c(1) q + ... + c(T) q^T)
with rational r in [0, 1) and rational coefficients.  T is the truncation
order: coefficients of q^(r+n) are exact for n <= T and unknown beyond.
Arithmetic propagates the smallest valid order of its operands, so precision
loss is always explicit, and f.truncate(T) is the one way to shorten a series.
A float entering a series raises TypeError.

Every row sum over a series, sum_{j<=n} a_j row_n[j], runs on one integer
form of it, its blocks, built once per series and kept in it.  A block is a
run of consecutive coefficients a_j; it keeps the integers a_j D_k over a
common multiple D_k of their denominators, and the ratio of D_k to the D of
the block before it.  _blocks builds them from the coefficients: with L_n
the lcm of the reduced denominators of a_0..a_n, a block closes at n once it
holds more than 4 sqrt(n + 1) coefficients (_closes), or at the last one,
and D_k = L_n.  So each integer is about as wide as its own block's
coefficients, not as the last one.  _horner sums a row over blocks,
acc = acc * ratio + dot, over the D of the block where the row ends;
_row_sums takes every row sum of a series, and mde.component_series builds
its blocks as its coefficients come.  modular_derivative returns a series
made from its integer form, on the blocks of its argument with each D_k
times 12 kd e (see there); such a series reduces its coefficients to
Fractions on the first read of .coeffs.

The module also provides the weight-k Eisenstein series (whose numerators
build_mde reads to construct the differential equation) and the
weight-raising modular derivative.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count, islice
from operator import add, mul
from typing import Iterable, Iterator, Sequence, Union

from .arith import RationalLike, _exact, bernoulli, rational_str, sigma_k

__all__ = [
    "QExpansion",
    "eisenstein",
    "modular_derivative",
]


class QExpansion:
    """Immutable truncated q-series q^exponent * sum(coeffs[n] * q^n).

    A series holds its reduced coefficients, its blocks, or both.  One made
    by the constructor builds its blocks at the first row sum over it; one
    made from its integer form reduces its coefficients at the first read of
    .coeffs.  What is made is kept, and no value depends on which came first.
    """

    __slots__ = ("_exponent", "_coeffs", "_blocks")

    def __init__(self, exponent: RationalLike, coeffs: Iterable[RationalLike]):
        exponent = _exact(exponent)
        if not 0 <= exponent < 1:
            raise ValueError(f"leading exponent must lie in [0, 1), got {exponent}")
        cs = tuple(c if type(c) is Fraction else _exact(c) for c in coeffs)
        if not cs:
            raise ValueError("a QExpansion needs at least the constant coefficient")
        self._exponent = exponent
        self._coeffs = cs
        self._blocks = None

    @classmethod
    def _from_blocks(cls, exponent: Fraction, blocks: list[tuple[int, list[int]]]) -> "QExpansion":
        """The series of the given integer form, its coefficients not yet reduced."""
        series = cls.__new__(cls)
        series._exponent, series._coeffs, series._blocks = exponent, None, blocks
        return series

    @property
    def exponent(self) -> Fraction:
        return self._exponent

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            d, cs = 1, []
            for ratio, ints in self._blocks:
                d *= ratio
                cs.extend(Fraction(x, d) for x in ints)
            self._coeffs = tuple(cs)
        return self._coeffs

    @property
    def order(self) -> int:
        """Largest n for which the coefficient of q^(exponent+n) is exact."""
        if self._coeffs is None:
            return sum(len(ints) for _, ints in self._blocks) - 1
        return len(self._coeffs) - 1

    def truncate(self, order: int) -> "QExpansion":
        """Restriction to a smaller (or equal) truncation order."""
        if not 0 <= order <= self.order:
            raise ValueError(f"truncation order must lie in [0, {self.order}], got {order}")
        if order == self.order:
            return self
        return QExpansion(self._exponent, self.coeffs[: order + 1])

    def scale(self, factor: RationalLike) -> "QExpansion":
        factor = _exact(factor)
        return QExpansion(self._exponent, (factor * c for c in self.coeffs))

    def __neg__(self) -> "QExpansion":
        return self.scale(-1)

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        if self._exponent != other._exponent:
            raise ValueError(
                "cannot add expansions with mismatched leading exponents "
                f"{self._exponent} and {other._exponent}"
            )
        return QExpansion(self._exponent, map(add, self.coeffs, other.coeffs))

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["QExpansion", RationalLike]) -> "QExpansion":
        """Product of two series, or of a series and a scalar: c_n is the row
        sum of this series against the other's b_n, ..., b_0 over their lcm."""
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        cs = other.coeffs[: self.order + 1]
        lb = math.lcm(*(c.denominator for c in cs))
        b = [c.numerator * (lb // c.denominator) for c in cs]
        rows = (b[n::-1] for n in range(len(b)))
        prod = [Fraction(c, d * lb) for d, _, c in _row_sums(self, rows)]
        exponent = self._exponent + other._exponent
        if exponent >= 1:
            # Fold the integer part of the exponent into the series: one exact
            # leading zero before the product coefficients.
            return QExpansion(exponent - 1, [Fraction(0)] + prod)
        return QExpansion(exponent, prod)

    def __rmul__(self, other: RationalLike) -> "QExpansion":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self._exponent == other._exponent and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self._exponent, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(rational_str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return (
            f"QExpansion(q^{rational_str(self._exponent)}; "
            f"[{head}{tail}]; order={self.order})"
        )

    def to_json_dict(self) -> dict:
        """JSON form {"exponent": "A/N", "coeffs": ["1", "-3", ...], "order": T}."""
        return {
            "exponent": rational_str(self._exponent),
            "coeffs": [rational_str(c) for c in self.coeffs],
            "order": self.order,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QExpansion":
        if type(coeffs := data["coeffs"]) is not list:
            raise TypeError(f"coeffs must be a list, got {type(coeffs).__name__} {coeffs!r}")
        series = cls(data["exponent"], coeffs)  # a JSON float raises TypeError
        if type(order := data["order"]) is not int:
            raise TypeError(f"order must be an int, got {type(order).__name__} {order!r}")
        if series.order != order:
            raise ValueError(f"order field {order} disagrees with {series.order + 1} coefficients")
        return series


def _closes(size: int, n: int) -> bool:
    return size * size > 16 * n


def _blocks(cs: Sequence[Fraction]) -> list[tuple[int, list[int]]]:
    """The blocks (ratio, ints) of the series with coefficients cs, in order."""
    lcms = list(accumulate((c.denominator for c in cs), math.lcm))
    blocks, start, last = [], 0, 1
    for n, l in enumerate(lcms, 1):
        if _closes(n - start, n) or n == len(lcms):
            blocks.append((l // last, [c.numerator * (l // c.denominator) for c in cs[start:n]]))
            start, last = n, l
    return blocks


def _horner(blocks: Iterable[tuple[int, Sequence[int]]], row: Iterator[int]) -> int:
    """acc = acc * ratio + dot over blocks, each dot taking the next entries of
    the iterator row (map stops at ints before it draws from row), up to the
    block where row ends; the sum is over that block's lcm."""
    acc = 0
    for ratio, ints in blocks:
        acc = acc * ratio + sum(map(mul, ints, row))
    return acc


def _int_form(f: QExpansion) -> list[tuple[int, list[int]]]:
    """The blocks of f, built by _blocks on the first call and kept in f."""
    if f._blocks is None:
        f._blocks = _blocks(f.coeffs)
    return f._blocks


def _leading(f: QExpansion) -> Fraction:
    """The constant coefficient of f, without reducing the others."""
    if f._coeffs is None:
        ratio, ints = f._blocks[0]
        return Fraction(ints[0], ratio)
    return f._coeffs[0]


def _row_sums(f: QExpansion, rows: Iterable[Iterable[int]]) -> Iterator[tuple]:
    """(d, a_n d, sum_{j<=n} a_j d row_n[j]) for each row n, d the D of a_n's
    block, from rows that list row n in the order of a_0, ..., a_n.  There
    may be fewer rows than coefficients of f; the sums stop with the rows."""
    blocks, rows, d = _int_form(f), iter(rows), 1
    for k, (ratio, ints) in enumerate(blocks, 1):
        d, head = d * ratio, blocks[:k]
        for x, row in zip(ints, rows):
            yield d, x, _horner(head, iter(row))


# Eisenstein coefficients per weight, one list each; extended on demand.
_EISENSTEIN: dict[int, list[Fraction]] = {}


def _eisenstein_coeffs(k: int, order: int) -> list[Fraction]:
    cs = _EISENSTEIN.setdefault(k, [Fraction(1)])
    if len(cs) <= order:
        factor = Fraction(-2 * k) / bernoulli(k)
        cs.extend(factor * sigma_k(k - 1, n) for n in range(len(cs), order + 1))
    return cs[: order + 1]


def eisenstein(k: int, order: int) -> QExpansion:
    """Normalized weight-k Eisenstein series, constant term 1, to the given order.

    The q^n coefficient is (-2k / B_k) * sigma_{k-1}(n).

    >>> eisenstein(4, 2).coeffs
    (Fraction(1, 1), Fraction(240, 1), Fraction(2160, 1))
    >>> eisenstein(6, 1).coeffs
    (Fraction(1, 1), Fraction(-504, 1))
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"Eisenstein weight must be even and >= 2, got {k}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return QExpansion(0, _eisenstein_coeffs(k, order))


def modular_derivative(f: QExpansion, k: RationalLike) -> QExpansion:
    """Weight-k modular derivative D_k f = theta(f) - (k/12) E2 f.

    theta multiplies the coefficient of q^(r+n) by (r+n).  The result is a
    weight k+2 object when f has weight k, to the order of f; truncate f
    first for a shorter result.  With (d, x, c) from _row_sums of f against
    the E2 numerators, r = s/e, v = s + e n and k = kn/kd, the coefficient of
    q^(r+n) is (12 kd v x - kn e c) / (12 kd e d).  The result is made from
    its integer form: these numerators on the blocks of f, whose D are those
    of f times 12 kd e, so only the first ratio takes the factor.  Its
    coefficients are reduced on the first read of .coeffs.

    >>> modular_derivative(QExpansion(0, [1, 0, 0]), 0).coeffs
    (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
    """
    kn, kd = _exact(k).as_integer_ratio()
    s, e = f.exponent.as_integer_ratio()
    e2 = [x.numerator for x in _eisenstein_coeffs(2, f.order)]
    sums = _row_sums(f, (e2[n::-1] for n in range(f.order + 1)))
    ys = (12 * kd * v * x - kn * e * c for v, (_, x, c) in zip(count(s, e), sums))
    blocks = [(ratio, list(islice(ys, len(ints)))) for ratio, ints in _int_form(f)]
    blocks[0] = (blocks[0][0] * 12 * kd * e, blocks[0][1])
    return QExpansion._from_blocks(f.exponent, blocks)
