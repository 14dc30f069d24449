"""Truncated q-expansions with fractional leading exponents.

A :class:`QExpansion` is the exact object q^r * (c(0) + c(1) q + ... + c(T) q^T)
with rational r in [0, 1) and rational coefficients.  T is the truncation
order: coefficients of q^(r+n) are exact for n <= T and unknown beyond.
Arithmetic propagates the smallest valid order of its operands, so precision
loss is always explicit, and f.truncate(T) is the one way to shorten a series.
Every integer Cauchy product is _row_product, one dot product per
coefficient.  A float entering a series raises TypeError.

The module also provides the weight-k Eisenstein series (whose numerators
build_mde reads to construct the differential equation) and the
weight-raising modular derivative, one _row_product of E2 against the series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .arith import RationalLike, _exact, bernoulli, rational_str, sigma_k

__all__ = [
    "QExpansion",
    "eisenstein",
    "modular_derivative",
]


class QExpansion:
    """Immutable truncated q-series q^exponent * sum(coeffs[n] * q^n)."""

    __slots__ = ("_exponent", "_coeffs")

    def __init__(self, exponent: RationalLike, coeffs: Iterable[RationalLike]):
        exponent = _exact(exponent)
        if not 0 <= exponent < 1:
            raise ValueError(f"leading exponent must lie in [0, 1), got {exponent}")
        cs = tuple(c if type(c) is Fraction else _exact(c) for c in coeffs)
        if not cs:
            raise ValueError("a QExpansion needs at least the constant coefficient")
        self._exponent = exponent
        self._coeffs = cs

    @property
    def exponent(self) -> Fraction:
        return self._exponent

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        """Largest n for which the coefficient of q^(exponent+n) is exact."""
        return len(self._coeffs) - 1

    def truncate(self, order: int) -> "QExpansion":
        """Restriction to a smaller (or equal) truncation order."""
        if not 0 <= order <= self.order:
            raise ValueError(f"truncation order must lie in [0, {self.order}], got {order}")
        if order == self.order:
            return self
        return QExpansion(self._exponent, self._coeffs[: order + 1])

    def scale(self, factor: RationalLike) -> "QExpansion":
        factor = _exact(factor)
        return QExpansion(self._exponent, (factor * c for c in self._coeffs))

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
        order = min(self.order, other.order)
        return QExpansion(
            self._exponent,
            (self._coeffs[n] + other._coeffs[n] for n in range(order + 1)),
        )

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["QExpansion", RationalLike]) -> "QExpansion":
        """Product of two series, or of a series and a scalar.

        Each operand is brought to integers over the lcm of its denominators,
        a_i / la and b_j / lb; the product coefficient is c_n / (la lb) for the
        Cauchy sums c_n of _row_product.
        """
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        order = min(self.order, other.order)
        a, la = _integral(self._coeffs[: order + 1])
        b, lb = _integral(other._coeffs[: order + 1])
        den = la * lb
        prod = [Fraction(c, den) for c in _row_product(a, b)]
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
        return self._exponent == other._exponent and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._exponent, self._coeffs))

    def __repr__(self) -> str:
        head = ", ".join(rational_str(c) for c in self._coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return (
            f"QExpansion(q^{rational_str(self._exponent)}; "
            f"[{head}{tail}]; order={self.order})"
        )

    def to_json_dict(self) -> dict:
        """JSON form {"exponent": "A/N", "coeffs": ["1", "-3", ...], "order": T}."""
        return {
            "exponent": rational_str(self._exponent),
            "coeffs": [rational_str(c) for c in self._coeffs],
            "order": self.order,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QExpansion":
        series = cls(data["exponent"], data["coeffs"])  # a JSON float raises TypeError
        if series.order != data["order"]:
            raise ValueError(
                f"order field {data['order']} disagrees with "
                f"{len(data['coeffs'])} coefficients"
            )
        return series


def _integral(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integers a_i and their common denominator l with coeffs[i] = a_i / l."""
    l = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (l // c.denominator) for c in coeffs], l


def _row_product(narrow: Sequence[int], wide: Sequence[int]) -> list[int]:
    """The Cauchy sums c_n = sum_{i+j=n} narrow_i wide_j for n < len(narrow) = len(wide).

    One dot product per coefficient: c_n multiplies each wide_j by one narrow
    entry, so a narrow operand of tens of bits costs about len^2 / 2 products
    of a small int by a wide one.
    """
    rev = narrow[::-1]
    top = len(narrow) - 1
    return [sum(map(mul, wide, rev[top - n :])) for n in range(len(wide))]


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
    first for a shorter result.  With f's coefficients a_n / l over one
    denominator, c = _row_product(E2, a), r = s/e and k = kn/kd, the
    coefficient of q^(r+n) is (12 kd (s + e n) a_n - kn e c_n) / (12 kd e l).

    >>> modular_derivative(QExpansion(0, [1, 0, 0]), 0).coeffs
    (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
    """
    kn, kd = _exact(k).as_integer_ratio()
    s, e = f.exponent.as_integer_ratio()
    a, l = _integral(f.coeffs)
    c = _row_product([x.numerator for x in _eisenstein_coeffs(2, f.order)], a)
    den = 12 * kd * e * l
    terms = (12 * kd * (s + e * n) * an - kn * e * cn for n, (an, cn) in enumerate(zip(a, c)))
    return QExpansion(f.exponent, [Fraction(x, den) for x in terms])
