"""The order-3 modular differential system attached to a triple.

For a validated triple the minimal-weight components solve a monic Fuchsian
equation in the q-variable,

    q^3 f''' + g2(q) q^2 f'' + g1(q) q f' + g0(q) f = 0,

whose coefficient series g_j are exact rational combinations of Eisenstein
series determined by two rational parameters alpha4 and alpha6.  The system
keeps each g_j only as the integer array h_j = 6N^(3-j) g_j.  Those in turn
come from integers x0, x4, x6 determined by the triple:

    x0 = 4*sigma - 2N
    x4 = 144*omega - 3*x0*(x0 + 4N) - 8N^2
    x6 = x0*x4 + x0*(x0 + 2N)*(x0 + 4N) - 1728*product

with alpha4 = x4/(12N)^2 and alpha6 = x6/(12N)^3.  The indicial polynomial of
the system then has exactly A/N, B/N, C/N as roots, which is what pins x4 and
x6 (matching the indicial cubic coefficient by coefficient forces
alpha4 = omega/N^2 - (3 k0^2 + 12 k0 + 8)/144 and the x6 expression above).
So it is phi(lam) = (lam - A/N)(lam - B/N)(lam - C/N), and _diagonal gives
6N^3 u^3 phi(w/(Nu)) = 6(w - Au)(w - Bu)(w - Cu) to the recursion, the
residual and indicial_phi: no computation reads h_j[0].

The Frobenius recursion runs on scaled integers: 6N^3 * phi_m(A/N + j) and
6N^3 * phi(A/N + n) are integers.  The first rests on the integrality of the
arrays h_j, which build_mde checks coefficient by coefficient with _exact_div,
raising ArithmeticError should one fail.  component_series and ode_residual
take their row sums over the closed blocks of a series described in qseries,
and read their rows of the quadratic P_m(j), m >= 1, from _rows.

So ode_residual is no independent check of _rows or _diagonal: a fault in
_rows that keeps each row homogeneous in (v0, d), such as a wrong factor on
a difference, or a wrong root in _diagonal, makes component_series return
wrong coefficients whose residual is still zero.  Their checks are the tests
that compare ode_residual with the convolution form, and component_series
with the naive and the unreduced recursions, all three kept in
tests/conftest.py; these read h_j[0] through the full cubic, and
tests/test_sympy_oracle.py proves it equal to the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import gcd
from operator import add
from typing import Iterator, Optional

from .arith import RationalLike, _exact
from .qseries import (
    QExpansion,
    _closes,
    _eisenstein_coeffs,
    _horner,
    _leading,
    _row_sums,
    modular_derivative,
)
from .reps import RepTriple, _others

__all__ = [
    "DerivedBasis",
    "MDESystem",
    "MinimalVector",
    "build_mde",
    "component_series",
    "derived_basis",
    "indicial_phi",
    "minimal_vector",
    "ode_residual",
    "phi_j",
]


@dataclass(frozen=True)
class MDESystem:
    """The differential system for one triple, built to a fixed order.

    h0, h1, h2 are the integer arrays 6N^3*g0(n), 6N^2*g1(n), 6N*g2(n), the
    one form of the equation: g_j(n) = h_j[n] / (6N^(3-j)).
    """

    triple: RepTriple
    order: int
    x0: int
    x4: int
    x6: int
    alpha4: Fraction
    alpha6: Fraction
    h0: tuple[int, ...]
    h1: tuple[int, ...]
    h2: tuple[int, ...]


@dataclass(frozen=True)
class MinimalVector:
    """Solution components with exponents A/N, B/N, C/N, leading coefficient 1."""

    components: tuple[QExpansion, QExpansion, QExpansion]

    def __post_init__(self) -> None:
        for comp in self.components:
            if comp.coeffs[0] != 1:
                raise ValueError("minimal vector components must lead with 1")


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what} is not divisible by {den}: {num}")
    return q


def build_mde(t: RepTriple, order: int) -> MDESystem:
    """Construct the system for a triple, exact through the given order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    n = t.N
    sig = t.sigma
    x0 = 4 * sig - 2 * n
    x4 = 144 * t.omega - 3 * x0 * (x0 + 4 * n) - 8 * n * n
    x6 = x0 * x4 + x0 * (x0 + 2 * n) * (x0 + 4 * n) - 1728 * t.product
    # Structural divisibility of the integer parameters.
    if not (x0 % 2 == 0 and x4 % 4 == 0 and x6 % 8 == 0):
        raise ArithmeticError(f"x0, x4, x6 = {(x0, x4, x6)} fail 2 | x0, 4 | x4, 8 | x6")
    if n % 3 == 0 and not (x0 % 3 == 0 and x4 % 3 == 0 and x6 % 9 == 0):
        raise ArithmeticError(f"x0, x4, x6 = {(x0, x4, x6)} fail 3 | x0, 3 | x4, 9 | x6")

    e2, e4, e6 = ([c.numerator for c in _eisenstein_coeffs(k, order)] for k in (2, 4, 6))
    w4 = 3 * x0 * n + 2 * n * n + x4  # N^2 * (3 k0 + 2 + 144 alpha4)
    w6 = 4 * x0 * n * n - x6  # 4 N^3 * (k0 - 432 alpha6)
    p1 = 3 * (x0 + n) * (x0 + 2 * n)  # 3 N^2 * (k0+1)(k0+2)
    p3 = x0 * (x0 + n) * (x0 + 2 * n)  # N^3 * k0 (k0+1)(k0+2)

    # 24 h1 = 144N^2 [m=0] - 144N sigma E2 + p1 E2^2 + w4 E4 and
    # -288 h0 = x0 w4 E2 E4 + p3 E2^3 + w6 E6, where Ramanujan's identities
    # (theta = q d/dq) make every product linear in Eisenstein coefficients:
    #   E2^2 = E4 + 12 theta E2,  E2 E4 = E6 + 3 theta E4,
    #   E2^3 = E6 + 9 theta E4 + 72 theta^2 E2.
    h2 = [18 * n - 6 * sig] + [-6 * sig * v for v in e2[1:]]
    h1 = [
        _exact_div(
            (144 * n * n if m == 0 else 0)
            + (12 * m * p1 - 144 * n * sig) * e2[m]
            + (p1 + w4) * e4[m],
            24,
            "scaled g1 coefficient",
        )
        for m in range(order + 1)
    ]
    h0 = [
        _exact_div(
            -(
                72 * m * m * p3 * e2[m]
                + m * (3 * x0 * w4 + 9 * p3) * e4[m]
                + (x0 * w4 + p3 + w6) * e6[m]
            ),
            288,
            "scaled g0 coefficient",
        )
        for m in range(order + 1)
    ]

    return MDESystem(
        triple=t,
        order=order,
        x0=x0,
        x4=x4,
        x6=x6,
        alpha4=Fraction(x4, (12 * n) ** 2),
        alpha6=Fraction(x6, (12 * n) ** 3),
        h0=tuple(h0),
        h1=tuple(h1),
        h2=tuple(h2),
    )


def _diagonal(t: RepTriple, w: int, u: int) -> int:
    """6N^3 u^3 phi(w / (Nu)) for the indicial cubic phi, from its roots."""
    return 6 * (w - t.A * u) * (w - t.B * u) * (w - t.C * u)


def indicial_phi(sys: MDESystem, lam: RationalLike) -> Fraction:
    """The indicial cubic lam(lam-1)(lam-2) + g2(0) lam(lam-1) + g1(0) lam + g0(0).

    Its roots are exactly the leading exponents A/N, B/N, C/N, so it is the
    monic product of the lam - A/N, read from _diagonal.
    """
    lam = _exact(lam)
    n, u = sys.triple.N, lam.denominator
    return Fraction(_diagonal(sys.triple, n * lam.numerator, u), 6 * n**3 * u**3)


def phi_j(sys: MDESystem, j: int, lam: RationalLike) -> Fraction:
    """The depth-j recursion polynomial g2(j) lam(lam-1) + g1(j) lam + g0(j)."""
    if j < 1:
        raise ValueError(f"phi_j needs j >= 1, got {j}")
    if j > sys.order:
        raise ValueError(f"system built to order {sys.order}, requested j = {j}")
    lam, n = _exact(lam), sys.triple.N
    return (sys.h2[j] * n * n * lam * (lam - 1) + sys.h1[j] * n * lam + sys.h0[j]) / (6 * n**3)


def _rows(
    sys: MDESystem, scales: tuple[int, int, int], v0: int, d: int, T: int
) -> Iterator[list[int]]:
    """For n = 1, ..., T, the row p with p[m - 1] = P_m(n - m), m = 1..n.

    P_m(j) = s2 h2[m] v_j (v_j - d) + s1 h1[m] v_j + s0 h0[m] for the scales
    (s2, s1, s0) and v_j = v0 + j d.  P_m is quadratic in j, so each row
    follows from the last by two additions per entry: the first difference
    in j is (2 s2 h2[m] v_j + s1 h1[m]) d, the second 2 s2 h2[m] d^2.  A
    row's sum against the series reads it reversed, from P_n(0) on.
    """
    s2, s1, s0 = scales
    h0, h1, h2 = sys.h0, sys.h1, sys.h2
    k2, k1 = s2 * v0 * (v0 - d), s1 * v0
    j2, j1 = 2 * s2 * v0 * d, s1 * d
    p, dp, ddp = [], [], [2 * s2 * d * d * v for v in h2[1 : T + 1]]
    for n in range(1, T + 1):
        p = list(map(add, p, dp))
        dp = list(map(add, dp, ddp))
        p.append(k2 * h2[n] + k1 * h1[n] + s0 * h0[n])
        dp.append(j2 * h2[n] + j1 * h1[n])
        yield p


def component_series(sys: MDESystem, lead: int, order: Optional[int] = None) -> QExpansion:
    """One Frobenius solution q^(lead/N) (1 + sum a(n) q^n) of the system.

    a(n) = -(1 / phi(lead/N + n)) * sum_{j<n} a(j) phi_{n-j}(lead/N + j),
    run over the integers b_j = a(j) L, where L is the lcm of the reduced
    denominators of a(0..n-1).  With P_m(j) = 6N^3 phi_m(lead/N + j) and
    c_n = 6N n lambda(n), a(n) = -S / (L c_n) for S = sum_{j<n} b_j P_{n-j}(j).
    At each prime p the lcm's valuation grows by max(0, nu_p(c_n) - nu_p(S)),
    so with g = gcd(S, c_n) the lcm grows by r = c_n / g and b_n = -S / g.
    Reducing b_n / L is the only gcd on numbers of L's size.  The b_j are
    held in the blocks of qseries as they come: only the open one, recent,
    grows by r, with rho = L / (L at the last close).  S is their _horner sum
    against the row P_{n-j}(j) of _rows at unit scales, v_j = lead + j N, and
    c_n comes from _diagonal; a zero c_n, impossible for distinct exponents,
    raises ArithmeticError.
    """
    T = sys.order if order is None else order
    if T < 0:
        raise ValueError(f"order must be >= 0, got {T}")
    if T > sys.order:
        raise ValueError(f"system built to order {sys.order}, requested {T}")
    t = sys.triple
    _others(t, lead)
    blocks, rho, recent, L = [], 1, [1], 1
    coeffs = [Fraction(1)]
    for n, p in enumerate(_rows(sys, (1, 1, 1), lead, t.N, T), 1):
        cn = _diagonal(t, lead + n * t.N, 1)
        if cn == 0:
            raise ArithmeticError(f"lambda_n vanishes for {t}, lead {lead}, n = {n}")
        s = _horner([*blocks, (rho, recent)], reversed(p))
        g = gcd(s, cn)
        if g != cn:
            r = cn // g
            L *= r
            rho *= r
            recent = list(map(r.__mul__, recent))
        recent.append(-s // g)
        coeffs.append(Fraction(recent[-1], L))
        if _closes(len(recent), len(coeffs)):
            blocks.append((rho, recent))
            rho, recent = 1, []
    return QExpansion(Fraction(lead, t.N), coeffs)


def minimal_vector(sys: MDESystem) -> MinimalVector:
    """All three solution components, one recursion per leading exponent."""
    t = sys.triple
    return MinimalVector(tuple(component_series(sys, lead) for lead in (t.A, t.B, t.C)))


def ode_residual(sys: MDESystem, f: QExpansion) -> QExpansion:
    """Exact residual q^3 f''' + g2 q^2 f'' + g1 q f' + g0 f through
    T = min(f.order, sys.order).

    With f = q^(s/e) sum a_n q^n and v_j = s + e j, the coefficient of
    q^(s/e + n) times 6N^3 e^3 is the recursion's row sum: the diagonal
    6N^3 e^3 phi(v_n / e) a_n, from _diagonal, plus the sum over j < n of
    a_j R_{n-j}(j), R_m(j) = N^2 e h2[m] v_j (v_j - e) + N e^2 h1[m] v_j +
    e^3 h0[m], from _rows (an empty row for n = 0); _row_sums gives both times
    its d.  It vanishes on recursion output and isolates phi(s/e + n) times
    the perturbation of a series.
    """
    T = min(f.order, sys.order)
    s, e = f.exponent.numerator, f.exponent.denominator
    t = sys.triple
    rows = _rows(sys, (t.N * t.N * e, t.N * e * e, e**3), s, e, T)
    sums = _row_sums(f, chain([()], map(reversed, rows)))
    return QExpansion(f.exponent, [
        Fraction(_diagonal(t, t.N * v, e) * x + c, 6 * t.N**3 * e**3 * d)
        for v, (d, x, c) in zip(count(s, e), sums)
    ])


@dataclass(frozen=True)
class DerivedBasis:
    """F0 and its two modular derivatives, with the leading-coefficient data.

    matrix[i][j] is the leading coefficient of the j-th derivative of the i-th
    component, equal to the product over k < j of (r_i - (k0 + 2k)/12); its
    determinant is the Vandermonde product of the leading exponents.
    """

    f0: MinimalVector
    first: tuple[QExpansion, QExpansion, QExpansion]
    second: tuple[QExpansion, QExpansion, QExpansion]
    matrix: tuple[tuple[Fraction, Fraction, Fraction], ...]
    determinant: Fraction
    vandermonde: Fraction


def derived_basis(sys: MDESystem, f0: MinimalVector) -> DerivedBasis:
    """Apply the weight-k0 and weight-(k0+2) derivatives to every component.

    D^2 runs on the integer form of D, and the matrix reads only the leading
    coefficients, so no coefficient of DF or D^2F is reduced before a caller
    reads its .coeffs.
    """
    k0 = sys.triple.k0
    T = min(min(c.order for c in f0.components), sys.order)
    first = tuple(modular_derivative(c.truncate(T), k0) for c in f0.components)
    second = tuple(modular_derivative(c, k0 + 2) for c in first)
    matrix = tuple(tuple(map(_leading, fs)) for fs in zip(f0.components, first, second))
    m = matrix
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    r = sys.triple.exponents
    vandermonde = (r[1] - r[0]) * (r[2] - r[0]) * (r[2] - r[1])
    return DerivedBasis(
        f0=f0,
        first=first,
        second=second,
        matrix=matrix,
        determinant=det,
        vandermonde=vandermonde,
    )
