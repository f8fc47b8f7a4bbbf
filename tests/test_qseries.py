import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from setpart.core import PartitionError, enumerate_ordered, enumerate_partitions, parse_partition
from setpart.qseries import (
    QPolynomial,
    _times_q_int,
    generating_function,
    q_factorial,
    q_int,
    q_stirling,
    shifted_stirling,
)
from setpart.stats import mak, resolve_statistic

polys = st.builds(QPolynomial, st.lists(st.integers(-9, 9), max_size=8))


def test_construction_and_views():
    p = QPolynomial((0, 3, 3, 1))
    assert p.text() == "3*q + 3*q^2 + q^3"
    assert p.degree == 3
    assert p.coefficient(2) == 3
    assert p.coefficient(17) == 0
    assert p.coefficients() == (0, 3, 3, 1)
    assert p.to_dict() == {1: 3, 2: 3, 3: 1}
    assert QPolynomial((1, 0, 0)).coefficients() == (1,)  # trailing zeros dropped
    assert QPolynomial.zero().is_zero
    assert QPolynomial.zero().degree == -1
    assert QPolynomial.zero().text() == "0"
    assert QPolynomial.one().text() == "1"
    assert QPolynomial((0, 0, 0, 0, 2)).text() == "2*q^4"
    assert QPolynomial.from_dict({3: 1, 1: 3, 2: 3}) == p
    with pytest.raises(ValueError):
        QPolynomial.from_dict({-2: 1})
    with pytest.raises(TypeError, match="coefficient 1.5 is not an int"):
        QPolynomial((1.5,))
    with pytest.raises(TypeError, match="coefficient 1.5 is not an int"):
        QPolynomial.from_dict({1: 1.5})
    with pytest.raises(TypeError, match="coefficient '2' is not an int"):
        QPolynomial([1, "2", 3, 0])
    assert QPolynomial((0, 1, 0)).coefficients() == (0, 1)
    assert QPolynomial((2, -3, 1, -1, 0, 7)).text() == "2 + -3*q + q^2 + -q^3 + 7*q^5"


def test_text_and_json_refuse_huge_exponents():
    # a dense list with a billion entries would be allocated otherwise
    with pytest.raises(ValueError, match="exponent 1000000000 exceeds"):
        QPolynomial.from_dict({10**9: 1})
    assert QPolynomial.from_dict({10**6: 1}).degree == 10**6


def test_text_forms():
    assert QPolynomial((0, -1, 2)).text() == "-q + 2*q^2"
    assert QPolynomial((5,)).text() == "5"
    assert QPolynomial((0, 3, 0, 1)).text() == "3*q + q^3"


def test_json_round_trip():
    p = q_stirling(5, 3)
    coeffs = json.loads(json.dumps(p.to_json_dict()))["coeffs"]
    assert QPolynomial.from_dict({int(e): c for e, c in coeffs.items()}) == p
    assert p.to_json_dict() == {"coeffs": {str(e): c for e, c in p.to_dict().items()}}


def test_q_int_and_factorial():
    assert q_int(0).is_zero
    assert q_int(1) == QPolynomial.one()
    assert q_int(3).text() == "1 + q + q^2"
    assert q_factorial(0) == QPolynomial.one()
    assert q_factorial(3).text() == "1 + 2*q + 2*q^2 + q^3"
    for k in range(7):
        assert sum(q_factorial(k).coefficients()) == math.factorial(k)
    with pytest.raises(ValueError):
        q_int(-1)
    with pytest.raises(ValueError):
        q_factorial(-2)


def test_q_stirling_fixtures():
    assert q_stirling(0, 0) == QPolynomial.one()
    assert q_stirling(3, 0).is_zero
    assert q_stirling(2, 3).is_zero
    assert q_stirling(4, 2).text() == "3*q + 3*q^2 + q^3"
    for k in range(6):
        assert q_stirling(k, k) == QPolynomial.one().shift(k * (k - 1) // 2)
    with pytest.raises(ValueError):
        q_stirling(-1, 0)


def test_q_stirling_matches_literal_recurrence():
    for n in range(10):
        for k in range(n + 1):
            assert q_stirling(n, k).to_dict() == oracles.q_stirling_dict(n, k)


def test_q_stirling_equals_the_former_recurrence():
    for n in range(31):
        for k in range(n + 2):
            assert q_stirling(n, k) == oracles.q_stirling(n, k), (n, k)


def test_window_product_equals_multiplication_by_q_int():
    rng = random.Random(25)
    for _ in range(300):
        coeffs = [rng.randint(-10**30, 10**30) for _ in range(rng.randint(0, 40))]
        if coeffs and rng.random() < 0.3:
            coeffs[-1] = 0  # an untrimmed list
        j = rng.randint(1, 45)
        window = _times_q_int(coeffs, j)
        assert QPolynomial(window) == QPolynomial(coeffs) * q_int(j), (coeffs, j)
        assert len(window) == (len(coeffs) + j - 1 if coeffs else 0)
    assert _times_q_int((1, 2, 3), 1) == [1, 2, 3]
    assert _times_q_int((0, 3, 3, 1), 2) == [0, 3, 6, 4, 1]


def test_q_stirling_counts_at_one():
    for n in range(10):
        for k in range(n + 1):
            assert sum(q_stirling(n, k).coefficients()) == oracles.stirling(n, k)


def test_shifted_stirling():
    assert shifted_stirling(4, 2).text() == "3 + 3*q + q^2"
    assert shifted_stirling(5, 5) == QPolynomial.one()
    assert shifted_stirling(2, 3) == QPolynomial.zero()
    with pytest.raises(ValueError, match="need n, k >= 0"):
        shifted_stirling(2, -1)
    with pytest.raises(ValueError, match="not divisible"):
        q_stirling(4, 2).divide_by_q_power(2)


def test_shift_and_divide():
    p = QPolynomial((1, 2))
    assert p.shift(2).coefficients() == (0, 0, 1, 2)
    assert p.shift(0) == p
    assert p.shift(3).divide_by_q_power(3) == p
    assert QPolynomial.zero().shift(5).is_zero
    with pytest.raises(ValueError):
        p.shift(-1)
    with pytest.raises(ValueError):
        p.divide_by_q_power(-1)


def test_generating_function_fixture():
    assert generating_function(enumerate_partitions(4, 2), resolve_statistic("mak")) == q_stirling(
        4, 2
    )
    assert generating_function(enumerate_partitions(4, 2), mak) == q_stirling(4, 2)
    assert generating_function([], mak).is_zero
    assert generating_function(
        enumerate_ordered(3, 2), resolve_statistic("mak+bmaj")
    ) == q_factorial(2) * q_stirling(3, 2)


def test_generating_function_rejects_negative_values():
    p = parse_partition("1,4,8/2/3/5,6,7,9")
    with pytest.raises(ValueError, match="1,4,8/2/3/5,6,7,9"):
        generating_function([p], lambda q: -1)
    with pytest.raises(PartitionError):
        generating_function([p], resolve_statistic("no_such_stat"))


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + QPolynomial.zero() == a
    assert a * QPolynomial.one() == a
    assert (2 * a).coefficients() == tuple(2 * x for x in a.coefficients())


@given(polys, st.integers(0, 5))
def test_shift_divide_inverse(a, d):
    assert a.shift(d).divide_by_q_power(d) == a
