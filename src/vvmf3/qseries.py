"""Truncated q-expansions with fractional leading exponents.

A :class:`QExpansion` is the exact object q^r * (c(0) + c(1) q + ... + c(T) q^T)
with rational r in [0, 1) and rational coefficients.  T is the truncation
order: coefficients of q^(r+n) are exact for n <= T and unknown beyond.
Arithmetic propagates the smallest valid order of its operands, so precision
loss is always explicit.

The module also provides the weight-k Eisenstein series, the rescaled series
P, Q, R used by the differential-equation construction, and the weight-raising
modular derivative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .arith import RationalLike, bernoulli, rational_str, sigma_k

__all__ = [
    "QExpansion",
    "eisenstein",
    "modular_derivative",
    "modular_derivative_iterate",
    "pqr_series",
]


class QExpansion:
    """Immutable truncated q-series q^exponent * sum(coeffs[n] * q^n)."""

    __slots__ = ("_exponent", "_coeffs")

    def __init__(self, exponent: RationalLike, coeffs: Iterable[RationalLike]):
        exponent = Fraction(exponent)
        if not 0 <= exponent < 1:
            raise ValueError(f"leading exponent must lie in [0, 1), got {exponent}")
        cs = tuple(Fraction(c) for c in coeffs)
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

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of q^(exponent + n); n must not exceed the order."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside valid order {self.order}")
        return self._coeffs[n]

    def truncate(self, order: int) -> "QExpansion":
        """Restriction to a smaller (or equal) truncation order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return QExpansion(self._exponent, self._coeffs[: order + 1])

    def scale(self, factor: RationalLike) -> "QExpansion":
        factor = Fraction(factor)
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
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        order = min(self.order, other.order)
        prod = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self._coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other._coeffs[j]
                if b:
                    prod[i + j] += a * b
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
        series = cls(Fraction(data["exponent"]), [Fraction(c) for c in data["coeffs"]])
        if series.order != data["order"]:
            raise ValueError(
                f"order field {data['order']} disagrees with "
                f"{len(data['coeffs'])} coefficients"
            )
        return series


# Eisenstein coefficients per weight, one list each; extended on demand.
_EISENSTEIN: dict[int, list[Fraction]] = {}


def _eisenstein_coeffs(k: int, order: int) -> list[Fraction]:
    cs = _EISENSTEIN.setdefault(k, [Fraction(1)])
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


def pqr_series(order: int) -> tuple[QExpansion, QExpansion, QExpansion]:
    """The rescaled weight 2, 4, 6 series P = -E2/12, Q = E4/144, R = -E6/432."""
    return (
        eisenstein(2, order).scale(Fraction(-1, 12)),
        eisenstein(4, order).scale(Fraction(1, 144)),
        eisenstein(6, order).scale(Fraction(-1, 432)),
    )


def modular_derivative(f: QExpansion, k: RationalLike, order: int | None = None) -> QExpansion:
    """Weight-k modular derivative D_k f = theta(f) - (k/12) E2 f.

    theta multiplies the coefficient of q^(r+n) by (r+n).  The result is a
    weight k+2 object when f has weight k.

    >>> modular_derivative(QExpansion(0, [1, 0, 0]), 0).coeffs
    (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
    """
    t = f.order if order is None else order
    if t > f.order:
        raise ValueError(f"f is only valid to order {f.order}, requested {t}")
    r = f.exponent
    theta = QExpansion(r, ((r + n) * c for n, c in enumerate(f.coeffs[: t + 1])))
    return theta + (eisenstein(2, t) * f.truncate(t)).scale(Fraction(k) / -12)


def modular_derivative_iterate(
    f: QExpansion, k: RationalLike, n: int, order: int | None = None
) -> QExpansion:
    """n-fold modular derivative starting at weight k; the weight rises by 2
    at every step, so this is D_{k+2(n-1)} o ... o D_{k+2} o D_k."""
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    t = f.order if order is None else order
    out = f.truncate(t)
    weight = Fraction(k)
    for _ in range(n):
        out = modular_derivative(out, weight, t)
        weight += 2
    return out

