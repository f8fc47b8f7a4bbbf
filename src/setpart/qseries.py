"""
Exact polynomials in q with integer coefficients, q-integers and
q-factorials, the q-Stirling numbers S_q(n, k) of the second kind, and
generating functions of statistics over partition families.

S_q satisfies

    S_q(n, k) = q^(k-1) S_q(n-1, k-1) + [k]_q S_q(n-1, k)

with S_q(n, k) = delta_{n,k} whenever n = 0 or k = 0, where
[k]_q = 1 + q + ... + q^(k-1).  Its lowest-degree term is q^binom(k,2),
so dividing by that power (``shifted_stirling``) stays polynomial.

Two output formats, written and never read back: text, with ascending
exponents joined by `` + ``, zero terms omitted and unit coefficients
omitted, e.g. ``3*q + 3*q^2 + q^3``, and JSON,
``{"coeffs": {"1": 3, "2": 3, "3": 1}}``.  Internally coefficients live
in a dense tuple; the sparse mapping appears only at the boundary.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from . import core

# Largest exponent accepted from a sparse mapping (``from_dict``): the
# coefficients are stored densely, one entry per exponent.
MAX_EXPONENT = 10**6


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    """``coeffs`` as a tuple without trailing zeros."""
    dense = tuple(coeffs)  # tuple() and a full slice of a tuple do not copy it
    end = len(dense)
    while end and dense[end - 1] == 0:
        end -= 1
    return dense[:end]


class QPolynomial:
    """Immutable polynomial in q with int coefficients.

    >>> (q_int(2) * q_int(3)).text()
    '1 + 2*q + 2*q^2 + q^3'
    >>> QPolynomial.from_dict({1: 3, 3: 1}).text()
    '3*q + q^3'
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        dense = _trim(coeffs)
        for c in dense:
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an int")
        self._coeffs: tuple[int, ...] = dense

    @classmethod
    def _trusted(cls, coeffs: Iterable[int]) -> "QPolynomial":
        """The polynomial of ``coeffs``, ints by the caller's construction."""
        p = object.__new__(cls)
        p._coeffs = _trim(coeffs)
        return p

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def from_dict(cls, mapping: Mapping[int, int]) -> "QPolynomial":
        if not mapping:
            return cls.zero()
        exps = list(mapping)
        if min(exps) < 0:
            raise ValueError(f"negative exponent {min(exps)}")
        if max(exps) > MAX_EXPONENT:
            raise ValueError(f"exponent {max(exps)} exceeds {MAX_EXPONENT}")
        dense = [0] * (max(exps) + 1)
        for e, c in mapping.items():
            dense[e] = c
        return cls(dense)

    # -- views ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self._coeffs):
            return self._coeffs[exponent]
        return 0

    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def to_dict(self) -> dict[int, int]:
        return {e: c for e, c in enumerate(self._coeffs) if c}

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial._trusted(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial._trusted([c * other for c in self._coeffs])
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPolynomial._trusted(out)

    __rmul__ = __mul__

    def shift(self, d: int) -> "QPolynomial":
        """Multiply by q^d."""
        if d < 0:
            raise ValueError("shift exponent must be non-negative")
        if self.is_zero:
            return self
        return QPolynomial._trusted((0,) * d + self._coeffs)

    def divide_by_q_power(self, d: int) -> "QPolynomial":
        """Exact division by q^d; raises if a low coefficient is non-zero."""
        if d < 0:
            raise ValueError("power must be non-negative")
        if self.is_zero:
            return self
        if any(self._coeffs[:d]):
            bad = next(e for e, c in enumerate(self._coeffs) if c)
            raise ValueError(f"not divisible by q^{d}: non-zero coefficient at q^{bad}")
        return QPolynomial._trusted(self._coeffs[d:])

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- formats -------------------------------------------------------

    def text(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join(
            [
                f"{c}*q^{e}" if e > 1 and c != 1 and c != -1 else _term(c, e)
                for e, c in enumerate(self._coeffs)
                if c
            ]
        )

    def to_json_dict(self) -> dict:
        return {"coeffs": {str(e): c for e, c in self.to_dict().items()}}

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"QPolynomial({self.text()!r})"


def _term(c: int, e: int) -> str:
    """One non-zero term of the text format, for any coefficient and exponent."""
    if e == 0:
        return str(c)
    qpart = "q" if e == 1 else f"q^{e}"
    return qpart if c == 1 else f"-{qpart}" if c == -1 else f"{c}*{qpart}"


def q_int(k: int) -> QPolynomial:
    """[k]_q = 1 + q + ... + q^(k-1), with [0]_q = 0."""
    if k < 0:
        raise ValueError("q-integer of a negative number")
    return QPolynomial._trusted((1,) * k)


def q_factorial(k: int) -> QPolynomial:
    """[k]_q! as a product of q-integers; the empty product is 1."""
    if k < 0:
        raise ValueError("q-factorial of a negative number")
    out = QPolynomial.one()
    for i in range(1, k + 1):
        out = out * q_int(i)
    return out


_STIRLING_CACHE: dict[tuple[int, int], QPolynomial] = {}


def q_stirling(n: int, k: int) -> QPolynomial:
    """S_q(n, k) by the two-term recurrence, memoized by (n, k)."""
    if n < 0 or k < 0:
        raise ValueError("q-Stirling numbers need n, k >= 0")
    if k > n:
        return QPolynomial.zero()
    try:
        return _STIRLING_CACHE[(n, k)]
    except KeyError:
        pass
    for m in range(0, n + 1):
        for j in range(0, min(m, k) + 1):
            if (m, j) in _STIRLING_CACHE:
                continue
            if m == 0 or j == 0:
                val = QPolynomial.one() if m == j else QPolynomial.zero()
            else:
                left = _STIRLING_CACHE.get((m - 1, j - 1), QPolynomial.zero())
                right = _STIRLING_CACHE.get((m - 1, j), QPolynomial.zero())
                val = left.shift(j - 1) + q_int(j) * right
            _STIRLING_CACHE[(m, j)] = val
    return _STIRLING_CACHE[(n, k)]


def shifted_stirling(n: int, k: int) -> QPolynomial:
    """S_q(n, k) divided by its guaranteed factor q^binom(k,2); zero for
    k > n."""
    return q_stirling(n, k).divide_by_q_power(k * (k - 1) // 2)


def generating_function(
    family: Iterable[core.Partition],
    statistic: Callable[[core.Partition], int],
) -> QPolynomial:
    """Sum of q^statistic over the family; zero for an empty family.

    A negative value aborts with an error naming the witness partition.
    """
    counts: dict[int, int] = {}
    for p in family:
        value = statistic(p)
        if value < 0:
            raise ValueError(
                f"statistic is negative ({value}) on partition {p.text()}"
            )
        counts[value] = counts.get(value, 0) + 1
    return QPolynomial.from_dict(counts)
