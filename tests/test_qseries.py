import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vvmf3.qseries
from vvmf3.arith import rational_str
from vvmf3.mde import build_mde, indicial_phi, phi_j
from vvmf3.qseries import QExpansion, eisenstein, modular_derivative
from vvmf3.reps import validate_triple
from conftest import _smulser, oracle_eisenstein, reference_modular_derivative


def _series(exponent, coeffs):
    return QExpansion(Fraction(*exponent), [Fraction(c) for c in coeffs])


def test_constructor_validates_exponent_range():
    QExpansion(0, [1])
    QExpansion(Fraction(6, 7), [1])
    with pytest.raises(ValueError):
        QExpansion(1, [1])
    with pytest.raises(ValueError):
        QExpansion(Fraction(-1, 7), [1])
    with pytest.raises(ValueError):
        QExpansion(0, [])


@pytest.mark.parametrize(
    "build",
    [
        lambda: QExpansion(0.1, [1]),
        lambda: QExpansion(0, [1, 0.1]),
        lambda: QExpansion(0, [1, 2]).scale(0.1),
        lambda: modular_derivative(QExpansion(0, [1, 2]), 0.1),
        lambda: indicial_phi(build_mde(validate_triple(1, 2, 4, 7), 1), 0.1),
        lambda: phi_j(build_mde(validate_triple(1, 2, 4, 7), 1), 1, 0.1),
    ],
    ids=["exponent", "coefficient", "scale", "derivative-weight", "indicial_phi", "phi_j"],
)
def test_floats_are_rejected(build):
    # 0.1 would enter as 3602879701896397/36028797018963968, not 1/10.
    with pytest.raises(TypeError):
        build()


def test_coefficient_and_truncate():
    f = _series((1, 3), [1, 2, 3])
    assert f.order == 2
    assert f.coeffs[1] == 2
    assert f.truncate(2) is f
    g = f.truncate(1)
    assert g.coeffs == (1, 2) and g.exponent == f.exponent
    assert f.truncate(0).order == 0
    with pytest.raises(ValueError):
        f.truncate(3)
    with pytest.raises(ValueError, match="truncation order"):
        f.truncate(-1)


def test_addition_requires_matching_exponents():
    f = _series((1, 3), [1, 2, 3])
    g = _series((1, 3), [5, 0, -1, 9])
    assert (f + g).coeffs == (6, 2, 2)
    with pytest.raises(ValueError):
        f + _series((2, 3), [1])


def test_multiplication_truncates_to_min_order():
    f = _series((0, 1), [1, 1])
    g = _series((0, 1), [1, -1, 7])
    assert (f * g).coeffs == (1, 0)


def test_multiplication_exponent_wraparound():
    # q^(2/3) * q^(2/3) = q^(4/3) = q^(1/3) * q: coefficients shift one slot.
    f = _series((2, 3), [1, 5])
    h = f * f
    assert h.exponent == Fraction(1, 3)
    assert h.coeffs == (0, 1, 10)
    assert h.order == 2


def test_scale():
    f = _series((1, 7), [1, -3])
    assert f.scale(Fraction(2, 5)).coeffs == (Fraction(2, 5), Fraction(-6, 5))


def test_eisenstein_matches_oracle():
    for k in (2, 4, 6, 8, 10, 12):
        assert list(eisenstein(k, 30).coeffs) == oracle_eisenstein(k, 30)
    with pytest.raises(ValueError):
        eisenstein(3, 5)
    with pytest.raises(ValueError):
        eisenstein(0, 5)


def test_eisenstein_cache_falling_and_rising(monkeypatch):
    # The per-weight lists grow on demand; every order reads a prefix.
    monkeypatch.setattr(vvmf3.qseries, "_EISENSTEIN", {})
    for order in (25, 3, 0, 12, 40, 7):
        for k in (2, 4, 6, 10):
            assert list(eisenstein(k, order).coeffs) == oracle_eisenstein(k, order)
    assert [len(cs) for cs in vvmf3.qseries._EISENSTEIN.values()] == [41] * 4


def test_ramanujan_identities():
    # theta P = Q - P^2 and theta Q = R - 4 P Q in the scaled variables
    # P = -E2/12, Q = E4/144, R = -E6/432.
    T = 20
    p = eisenstein(2, T).scale(Fraction(-1, 12))
    q = eisenstein(4, T).scale(Fraction(1, 144))
    r = eisenstein(6, T).scale(Fraction(-1, 432))
    theta_p = QExpansion(0, [n * c for n, c in enumerate(p.coeffs)])
    theta_q = QExpansion(0, [n * c for n, c in enumerate(q.coeffs)])
    assert theta_p == q + (p * p).scale(-1)
    assert theta_q == r + (p * q).scale(-4)


def test_discriminant_cusp_form():
    # (E4^3 - E6^2) / 1728 = q - 24 q^2 + 252 q^3 - 1472 q^4 + ...
    T = 6
    e4, e6 = eisenstein(4, T), eisenstein(6, T)
    delta = (e4 * e4 * e4 + (e6 * e6).scale(-1)).scale(Fraction(1, 1728))
    assert delta.coeffs[:5] == (0, 1, -24, 252, -1472)


def test_modular_derivative_classical_identities():
    T = 15
    e4, e6 = eisenstein(4, T), eisenstein(6, T)
    # D_4 E4 = -E6/3 and D_6 E6 = -E4^2/2.
    assert modular_derivative(e4, 4) == e6.scale(Fraction(-1, 3))
    assert modular_derivative(e6, 6) == (e4 * e4).scale(Fraction(-1, 2))


def test_modular_derivative_fractional_exponent():
    # D_k q^r = (r - k/12) q^r on a one-term series.
    f = QExpansion(Fraction(1, 7), [Fraction(1)], )
    g = modular_derivative(f, 2)
    assert g.exponent == f.exponent
    assert g.coeffs[0] == Fraction(1, 7) - Fraction(2, 12)


def test_json_round_trip():
    f = _series((2, 7), [1, Fraction(-40, 33), 0])
    data = f.to_json_dict()
    assert data == {"exponent": "2/7", "coeffs": ["1", "-40/33", "0"], "order": 2}
    assert QExpansion.from_json_dict(json.loads(json.dumps(data))) == f
    with pytest.raises(ValueError):
        QExpansion.from_json_dict({"exponent": "0", "coeffs": ["1"], "order": 5})
    # JSON numbers: integers are exact, floats are rejected as by the constructor.
    assert QExpansion.from_json_dict(json.loads('{"exponent": 0, "coeffs": [1, -3], "order": 1}')) \
        == QExpansion(0, [1, -3])
    # So is an order that is not an int, even one equal to the coefficient count,
    # and coeffs that are not a list, though a string or an object can be iterated.
    for text in ('{"exponent": "0", "coeffs": ["1", 0.1], "order": 1}',
                 '{"exponent": 0.5, "coeffs": ["1"], "order": 0}',
                 '{"exponent": "0", "coeffs": ["1", "2"], "order": true}',
                 '{"exponent": "0", "coeffs": ["1", "2"], "order": 1.0}',
                 '{"exponent": "0", "coeffs": "12", "order": 1}',
                 '{"exponent": "0", "coeffs": {"1": 0, "5": 1}, "order": 1}'):
        with pytest.raises(TypeError):
            QExpansion.from_json_dict(json.loads(text))


def test_json_round_trip_past_the_int_str_limit():
    # A 5,000-digit numerator: CPython's default limit on int <-> decimal str
    # conversion is 4,300 digits, and the limit stays in force.
    num = 10**4999 + 1234567
    digits = "1" + "0" * 4992 + "1234567"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        with pytest.raises(ValueError):
            str(num)
    f = QExpansion(0, [1, Fraction(-num, 3**50), num])
    data = f.to_json_dict()
    assert data["coeffs"] == ["1", f"-{digits}/{3**50}", digits]
    assert rational_str(Fraction(num, 7)) == f"{digits}/7"
    assert QExpansion.from_json_dict(json.loads(json.dumps(data))) == f
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    # Text that is not "num/den" still raises, past the limit too.
    with pytest.raises(ValueError):
        QExpansion.from_json_dict({"exponent": "0", "coeffs": [digits + "x"], "order": 0})


@st.composite
def small_series(draw):
    coeffs = draw(
        st.lists(
            st.fractions(min_value=Fraction(-50), max_value=Fraction(50)),
            min_size=1,
            max_size=6,
        )
    )
    return QExpansion(0, coeffs)


@given(small_series(), small_series(), small_series())
@settings(max_examples=100)
def test_ring_axioms_at_integral_exponent(f, g, h):
    T = min(f.order, g.order, h.order)
    f, g, h = f.truncate(T), g.truncate(T), h.truncate(T)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(small_series(), st.integers(min_value=-6, max_value=6))
@settings(max_examples=60)
def test_derivative_is_a_weight_k_derivation(f, k):
    # D_{2k}(f * g) = (D_k f) * g + f * (D_k g) with weights adding.
    g = f.scale(Fraction(1, 3))
    lhs = modular_derivative(f * g, 2 * k)
    rhs = modular_derivative(f, k) * g + f * modular_derivative(g, k)
    assert lhs == rhs


# Coefficients for the product oracle: small rationals, big integers and
# rationals with denominators of hundreds of bits, of either sign.
_coefficient = st.one_of(
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50)),
    st.integers(min_value=-(2**300), max_value=2**300).map(Fraction),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**200), max_value=2**200),
        st.integers(min_value=1, max_value=2**400),
    ),
)


@st.composite
def product_operand(draw):
    # Exponents with denominators up to 12 make sums that wrap past 1.
    den = draw(st.integers(min_value=1, max_value=12))
    exponent = Fraction(draw(st.integers(min_value=0, max_value=den - 1)), den)
    size = draw(st.sampled_from([1, 2, 5, 17, 64, 80]))
    fill = draw(st.sampled_from(["mixed", "zero", "sparse"]))
    if fill == "zero":
        coeffs = [Fraction(0)] * size
    else:
        coeffs = draw(st.lists(_coefficient, min_size=size, max_size=size))
        if fill == "sparse":
            coeffs = [c if n % 7 == 0 else Fraction(0) for n, c in enumerate(coeffs)]
    return QExpansion(exponent, coeffs)


@given(product_operand(), product_operand())
@example(QExpansion(0, [0]), QExpansion(0, [Fraction(257, 6)]))
@example(QExpansion(0, [2**64 - 1] * 70), QExpansion(Fraction(1, 2), [-(2**64) + 1] * 66))
@example(QExpansion(Fraction(5, 6), [Fraction(-1, 3)] * 64), QExpansion(Fraction(1, 2), [1, -1]))
# Entries 2^2000 wide, all-zero operands and a lone leading 1; in the last
# example the first operand's lcm grows at every coefficient, so each of its
# blocks carries a ratio other than 1 into the row sums.
@example(QExpansion(0, [0]), QExpansion(0, [2**2000]))
@example(QExpansion(0, [-(2**40)] * 80), QExpansion(0, [-(2**2000)] * 80))
@example(QExpansion(0, [1] + [0] * 79), QExpansion(0, [2**2000 - 1, -(2**2000)] * 40))
@example(QExpansion(0, [0] * 80), QExpansion(0, [2**2000 - 1] * 80))
@example(QExpansion(Fraction(1, 2), [Fraction(2**2000 - n, 3**n) for n in range(80)]),
         QExpansion(Fraction(2, 3), [-(2**40)] * 80))
@settings(max_examples=150, deadline=None)
def test_product_matches_cauchy_oracle(f, g):
    h = f * g
    prod = _smulser(list(f.coeffs), list(g.coeffs))
    exponent = f.exponent + g.exponent
    if exponent >= 1:
        exponent, prod = exponent - 1, [Fraction(0)] + prod
    assert h.exponent == exponent
    assert list(h.coeffs) == prod
    assert all(type(c) is Fraction for c in h.coeffs)


_weight = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=Fraction(-30), max_value=Fraction(30), max_denominator=60).filter(
        lambda k: k.denominator > 1
    ),
)


@given(product_operand(), _weight)
@example(QExpansion(Fraction(1, 7), [1]), Fraction(7, 3))
@example(QExpansion(0, [0, 0, 5]), -4)
@settings(max_examples=100, deadline=None)
def test_modular_derivative_matches_series_reference(f, k):
    g = modular_derivative(f, k)
    assert g == reference_modular_derivative(f, k)
    assert all(type(c) is Fraction for c in g.coeffs)
