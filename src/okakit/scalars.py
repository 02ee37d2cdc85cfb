"""Coefficient backends: exact Gaussian rationals and floating complex.

The exact backend stores each coefficient as reduced Python integers
(a, b, d) for (a + b*i)/d, so recombination identities can be checked with
zero tolerance.  The floating backend is plain ``complex`` with a declared
comparison tolerance.  ``_number`` reads a JSON number of a request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite
from numbers import Rational


class QQi:
    """Gaussian rational (a + b*i)/d as Python ints ``triple = (a, b, d)``, d > 0 and
    gcd(a, b, d) = 1: one triple per value, so ``==`` and ``hash`` compare triples.
    Immutable; ``re`` and ``im`` are Fractions."""

    __slots__ = ("triple",)

    def __init__(self, re, im):
        """re + im*i for int, Fraction or float parts."""
        # a Fraction's public numerator and denominator are Python-level properties
        if type(re) is Fraction:
            a, p = re._numerator, re._denominator
        else:
            a, p = re.as_integer_ratio()
        if type(im) is Fraction:
            b, q = im._numerator, im._denominator
        else:
            b, q = im.as_integer_ratio()
        if p != q:  # over the lcm of two reduced denominators the triple is reduced
            g = gcd(p, q)
            a, b, p = a * (q // g), b * (p // g), p // g * q
        _set_triple(self, (a, b, p))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a QQi is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _qqi, self.triple

    @property
    def re(self) -> Fraction:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self.triple[1], self.triple[2])

    def __repr__(self) -> str:
        return f"QQi(re={self.re!r}, im={self.im!r})"

    def __eq__(self, other):
        return self.triple == other.triple if type(other) is QQi else NotImplemented

    def __hash__(self) -> int:
        return hash(self.triple)

    def __add__(self, other: "QQi") -> "QQi":
        (a, b, d), (c, e, f) = self.triple, other.triple
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: "QQi") -> "QQi":
        return self + -other

    def __neg__(self) -> "QQi":
        a, b, d = self.triple
        return _qqi(-a, -b, d)

    def __mul__(self, other: "QQi") -> "QQi":
        (a, b, d), (c, e, f) = self.triple, other.triple
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def __truediv__(self, other: "QQi") -> "QQi":
        (a, b, d), (c, e, f) = self.triple, other.triple
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * norm)

    def __complex__(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        a, b, d = self.triple
        return complex(a / d, b / d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def is_zero(self) -> bool:
        return self.triple == (0, 0, 1)

    @staticmethod
    def of(value) -> "QQi":
        if isinstance(value, QQi):
            return value
        if isinstance(value, complex):
            return QQi(value.real, value.imag)
        if isinstance(value, Rational) and not isinstance(value, (int, Fraction)):
            value = Fraction(int(value.numerator), int(value.denominator))  # numpy integers
        if isinstance(value, (Rational, float)):
            return QQi(value, 0)
        raise TypeError(f"cannot build Gaussian rational from {value!r}")


_new = object.__new__
_set_triple = QQi.triple.__set__


def _qqi(a: int, b: int, d: int) -> QQi:
    """The QQi of the triple (a, b, d), which must already be reduced."""
    q = _new(QQi)
    _set_triple(q, (a, b, d))
    return q


def _reduced(a: int, b: int, d: int) -> QQi:
    """(a + b*i)/d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    return _qqi(a // g, b // g, d // g)


QQI_ZERO = _qqi(0, 0, 1)
QQI_ONE = _qqi(1, 0, 1)


@dataclass(frozen=True)
class Backend:
    """Coefficient arithmetic tag: 'exact' or 'floating' with tolerance eps."""

    tag: str
    eps: float = 0.0

    def __post_init__(self):
        if self.tag not in ("exact", "floating"):
            raise ValueError(f"unknown backend tag {self.tag!r}")
        if self.tag == "exact" and self.eps != 0.0:
            raise ValueError("exact backend has zero tolerance by definition")
        if self.eps < 0:
            raise ValueError("tolerance must be non-negative")

    @property
    def exact(self) -> bool:
        return self.tag == "exact"

    def coerce(self, value):
        """Bring a scalar into this backend's coefficient type."""
        if self.exact:
            return QQi.of(value)
        return complex(value)

    def zero(self):
        return QQI_ZERO if self.exact else 0j

    def one(self):
        return QQI_ONE if self.exact else 1 + 0j

    def is_zero(self, value) -> bool:
        """Structural zero test used for canonicalization (no tolerance)."""
        if self.exact:
            return value.is_zero()
        return value == 0


EXACT = Backend("exact", 0.0)


def floating(eps: float = 1e-12) -> Backend:
    return Backend("floating", eps)


def _number(value, kinds=(int, float)):
    """``value`` if it is a finite JSON number of ``kinds`` (a bool is none); else a
    TypeError or ValueError.  Every number of a request is read through it."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"expected {'an integer' if kinds is int else 'a number'}, got {value!r}")
    if not isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value
