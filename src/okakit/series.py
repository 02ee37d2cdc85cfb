"""Multivariate truncated power series / polynomials centered at a point of C^n.

A series is a sparse map from multi-indices (tuples of non-negative
integers) to coefficients, together with a center and a truncation order.
``order=None`` marks an exact polynomial (no truncation).  Canonical form
stores no zero coefficients, so equality of canonical series is equality
of their coefficient maps.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import IncompatibleOperands, RequiresExactPolynomial
from .scalars import EXACT, Backend, QQi, _number, floating

# Largest series dimension a JSON request may ask for; the CLI bounds the
# syzygy arity p and generator count N by it too.  A trivial-syzygy request
# builds p(p-1)/2 vectors of p series of dimension p, so its work and output
# grow like p^4: at p = 40 it printed 104 MB.
MAX_DIM = 16

MultiIndex = tuple  # tuple[int, ...]


def total_degree(exp: MultiIndex) -> int:
    return sum(exp)


@dataclass(frozen=True)
class TruncatedSeries:
    dim: int
    center: tuple
    coeffs: Mapping[MultiIndex, object]
    order: int | None  # None = exact polynomial
    backend: Backend

    def __post_init__(self):
        for exp in self.coeffs:
            if len(exp) != self.dim:
                raise ValueError(f"multi-index {exp} has wrong length for dim {self.dim}")
            if self.order is not None and total_degree(exp) > self.order:
                raise ValueError(f"term {exp} exceeds truncation order {self.order}")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_polynomial(self) -> bool:
        return self.order is None

    def degree(self) -> int:
        """Largest total degree among stored terms (-1 for the zero series)."""
        if not self.coeffs:
            return -1
        return max(total_degree(e) for e in self.coeffs)

    def depends_on(self, axis: int) -> bool:
        return any(e[axis] > 0 for e in self.coeffs)

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def coefficient(self, exp: MultiIndex):
        return self.coeffs.get(tuple(exp), self.backend.zero())

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce_operand(self, other))

    def __radd__(self, other):
        return add(self, _coerce_operand(self, other))

    def __sub__(self, other):
        return combine(self, [(1, None, self), (-1, None, _coerce_operand(self, other))])

    def __rsub__(self, other):
        return combine(self, [(1, None, _coerce_operand(self, other)), (-1, None, self)])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __neg__(self):
        return _series(self, {e: -v for e, v in self.coeffs.items()}, self.order)

    def __pow__(self, k: int):
        """self**k as k successive products, for an integer k >= 0."""
        if k < 0:
            raise ValueError(f"a series has no power {k}")
        acc = constant(self.dim, 1, backend=self.backend, center=self.center, order=self.order)
        for _ in range(k):
            acc = mul(acc, self)
        return acc

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.backend == other.backend
            and self.order == other.order
            and self.center == other.center
            and dict(self.coeffs) == dict(other.coeffs)
        )

    def __hash__(self):
        return hash((self.dim, self.center, self.order, frozenset(self.coeffs.items())))

    def __repr__(self):
        n = len(self.coeffs)
        return f"TruncatedSeries(dim={self.dim}, terms={n}, order={self.order}, backend={self.backend.tag})"


def _coerce_operand(ref: TruncatedSeries, value):
    if isinstance(value, TruncatedSeries):
        return value
    return constant(ref.dim, value, backend=ref.backend, center=ref.center, order=ref.order)


# -- construction -------------------------------------------------------


def make_series(
    dim: int,
    coeffs: Mapping[MultiIndex, object],
    order: int | None = None,
    backend: Backend = EXACT,
    center: Sequence | None = None,
) -> TruncatedSeries:
    """Canonical-form constructor: coerces coefficients, drops zeros."""
    if center is None:
        center = (backend.zero(),) * dim
    else:
        center = tuple(backend.coerce(c) for c in center)
        if len(center) != dim:
            raise ValueError("center length does not match dimension")
    canon = {}
    for exp, value in coeffs.items():
        exp = exp if type(exp) is tuple and all(type(e) is int for e in exp) else tuple(int(e) for e in exp)
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        v = backend.coerce(value)
        if exp in canon:
            v = canon[exp] + v
        if backend.is_zero(v):
            canon.pop(exp, None)
        else:
            canon[exp] = v
    if order is not None:
        canon = {e: v for e, v in canon.items() if total_degree(e) <= order}
    return TruncatedSeries(dim, center, canon, order, backend)


def zero(dim: int, backend: Backend = EXACT, center=None, order=None) -> TruncatedSeries:
    return make_series(dim, {}, order=order, backend=backend, center=center)


def constant(dim: int, value, backend: Backend = EXACT, center=None, order=None) -> TruncatedSeries:
    return make_series(dim, {(0,) * dim: value}, order=order, backend=backend, center=center)


def variable(dim: int, axis: int, backend: Backend = EXACT, center=None, order=None) -> TruncatedSeries:
    """The coordinate function z_axis expanded at ``center`` (0-based axis)."""
    return times_variable(constant(dim, 1, backend=backend, center=center, order=order), axis)


def monomial(dim: int, exp: MultiIndex, coeff=1, backend: Backend = EXACT, center=None, order=None) -> TruncatedSeries:
    return make_series(dim, {tuple(exp): coeff}, order=order, backend=backend, center=center)


# -- ring operations ----------------------------------------------------


def _check_compatible(a: TruncatedSeries, b: TruncatedSeries):
    if a.dim != b.dim:
        raise IncompatibleOperands(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.backend is not b.backend and a.backend != b.backend:
        raise IncompatibleOperands(f"backend mismatch: {a.backend.tag} vs {b.backend.tag}")
    if a.center != b.center:
        raise IncompatibleOperands("center mismatch")


def _min_order(a: int | None, b: int | None) -> int | None:
    return b if a is None else a if b is None else min(a, b)


def _series(like: TruncatedSeries, terms: dict, order: int | None) -> TruncatedSeries:
    """``terms``, nonzero and of degree at most ``order``, as a series like ``like``, unchecked."""
    f = object.__new__(TruncatedSeries)  # skips __post_init__'s multi-index checks
    f.__dict__.update(dim=like.dim, center=like.center, coeffs=terms, order=order, backend=like.backend)
    return f


def combine(like: TruncatedSeries, parts, order: int | None = None) -> TruncatedSeries:
    """sum sign * z_axis * f over the (sign, axis, f) of ``parts`` (f alone where
    ``axis`` is None) like ``like``, at the lowest order among ``order`` and the
    parts'.  One dict takes each part's terms, f's or ``times_variable``'s,
    negated where sign < 0: the chain of ``add`` it replaces, bit for bit.  A
    canonical f negated or shifted has no zero coefficient, so only keys where
    parts meet are tested for zero (and, off a zero centre, a part's own sums)."""
    parts = list(parts)
    for _, _, f in parts:
        _check_compatible(like, f)
        order = _min_order(order, f.order)
    zero_, terms = like.backend.zero(), {}
    for sign, axis, f in parts:
        if axis is None:
            items = f.coeffs
        elif not 0 <= axis < f.dim:
            raise ValueError(f"axis {axis} out of range for dim {f.dim}")
        elif f.backend.is_zero(f.center[axis]):
            items = {exp[:axis] + (exp[axis] + 1,) + exp[axis + 1:]: v for exp, v in f.coeffs.items()}
        else:  # z_axis = (z_axis - b_axis) + b_axis: v raised, then b_axis * v in place, as mul sums
            b, items = f.center[axis], {}
            for exp, v in f.coeffs.items():
                up = exp[:axis] + (exp[axis] + 1,) + exp[axis + 1:]
                items[up] = items[up] + v if up in items else v
                items[exp] = items[exp] + v * b if exp in items else v * b
            items = {e: v for e, v in items.items() if v != zero_}  # these sums and products can be 0
        if order is not None and (axis is not None or f.order != order):
            items = {e: v for e, v in items.items() if sum(e) <= order}
        if sign < 0:
            items = {e: -v for e, v in items.items()}
        for exp, v in items.items():
            if exp in terms:
                v = terms[exp] + v
                if v == zero_:
                    del terms[exp]
                    continue
            terms[exp] = v
    return _series(like, terms, order)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return combine(a, [(1, None, a), (1, None, b)])


def scale(a: TruncatedSeries, scalar) -> TruncatedSeries:
    s, zero_ = a.backend.coerce(scalar), a.backend.zero()
    return _series(a, {e: p for e, v in a.coeffs.items() if (p := v * s) != zero_}, a.order)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_compatible(a, b)
    order = _min_order(a.order, b.order)
    terms: dict = {}
    for ea, va in a.coeffs.items():
        for eb, vb in b.coeffs.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            if order is not None and total_degree(exp) > order:
                continue
            prod = va * vb
            terms[exp] = terms[exp] + prod if exp in terms else prod
    zero_ = a.backend.zero()  # a float product can underflow to 0, and a sum cancel
    return _series(a, {e: v for e, v in terms.items() if v != zero_}, order)


def times_variable(f: TruncatedSeries, axis: int) -> TruncatedSeries:
    """f * z_axis at f's order: every exponent of ``axis`` raised by one, plus b_axis * f off the axis.
    Each v moves unchanged, where ``mul`` multiplies it by 1 + 0j and so may turn a -0.0 part into 0.0:
    the product with z_axis up to the sign of zero.  ``division.split_variable`` undoes it."""
    return combine(f, [(1, axis, f)])


def recenter(f: TruncatedSeries, new_center: Sequence) -> TruncatedSeries:
    """Re-expand an exact polynomial around a different center: substitute
    z_k - b_k = (z_k - b'_k) + (b'_k - b_k) into every term, with the ring's
    own products and powers."""
    if not f.is_polynomial():
        raise RequiresExactPolynomial("recenter needs an untruncated polynomial")
    bnew = tuple(f.backend.coerce(c) for c in new_center)
    if len(bnew) != f.dim:
        raise ValueError("new center has wrong length")
    shifted = [variable(f.dim, k, backend=f.backend, center=bnew) - f.center[k] for k in range(f.dim)]
    acc = zero(f.dim, backend=f.backend, center=bnew)
    for exp, v in f.coeffs.items():
        term = constant(f.dim, v, backend=f.backend, center=bnew)
        for s, e in zip(shifted, exp):
            term = term * s**e
        acc = acc + term
    return acc


def evaluate(f: TruncatedSeries, point: Sequence):
    """Sum of stored terms c_nu (z - b)^nu at ``point``."""
    z = tuple(f.backend.coerce(p) for p in point)
    if len(z) != f.dim:
        raise ValueError("point has wrong length")
    w = tuple(z[k] - f.center[k] for k in range(f.dim))
    # cache powers per axis
    max_pow = [0] * f.dim
    for exp in f.coeffs:
        for k, e in enumerate(exp):
            max_pow[k] = max(max_pow[k], e)
    powers = []
    for k in range(f.dim):
        row = [f.backend.one()]
        for _ in range(max_pow[k]):
            row.append(row[-1] * w[k])
        powers.append(row)
    acc = f.backend.zero()
    for exp, v in f.coeffs.items():
        term = v
        for k, e in enumerate(exp):
            if e:
                term = term * powers[k][e]
        acc = acc + term
    return acc


def _cpow(wr, wi, e: int):
    """(wr + i wi)**e, e >= 1, of floats or float arrays, by the square-and-multiply
    sequence of CPython's complex power (which CPython itself uses up to e = 100)."""
    (rr, ri), (pr, pi), mask = (1.0, 0.0), (wr, wi), 1
    while True:
        if e & mask:
            rr, ri = rr * pr - ri * pi, rr * pi + ri * pr
        mask <<= 1
        if mask > e:
            return rr, ri
        pr, pi = pr * pr - pi * pi, pr * pi + pi * pr


def complex_evaluator(f: TruncatedSeries):
    """Float evaluation of ``f`` compiled for many points: maps an (m, dim) complex
    array to the (m,) values, each within an a priori bound of the exact value.
    Coefficients and center become floats, and each term's nonzero (axis,
    exponent) pairs are listed, once; terms are summed in dict order, real
    and imaginary parts kept apart.  One row runs the same operations on
    Python floats (no numpy call overhead), so it equals that row of a batch."""
    center = [complex(c) for c in f.center]
    terms = [([(k, e) for k, e in enumerate(exp) if e], complex(v)) for exp, v in f.coeffs.items()]

    def many(P: np.ndarray) -> np.ndarray:
        if P.shape[1:] != (f.dim,):
            raise ValueError(f"points of shape {P.shape} for a series of dimension {f.dim}")
        if len(P) == 1:
            w = [(z.real - b.real, z.imag - b.imag) for z, b in zip(P[0].tolist(), center)]
            acc_re = acc_im = 0.0
        else:
            w = [(P[:, k].real - b.real, P[:, k].imag - b.imag) for k, b in enumerate(center)]
            acc_re = acc_im = np.zeros(len(P))
        powers: dict = {}
        for factors, c in terms:
            tr, ti = c.real, c.imag
            for k, e in factors:
                if (k, e) not in powers:
                    powers[k, e] = _cpow(*w[k], e)
                pr, pi = powers[k, e]
                tr, ti = tr * pr - ti * pi, tr * pi + ti * pr
            acc_re = acc_re + tr
            acc_im = acc_im + ti
        out = np.empty(len(P), dtype=complex)
        out.real, out.imag = acc_re, acc_im
        return out

    return many


def negligible(f: TruncatedSeries, *refs: TruncatedSeries) -> bool:
    """True iff ``f`` vanishes: exactly on the exact backend; on the floating
    backend every |coefficient| at most eps * max(1, largest |coefficient|
    among ``refs``)."""
    if f.backend.exact:
        return f.is_zero()
    scale_ = max((r.max_abs_coeff() for r in refs), default=0.0)
    bound = f.backend.eps * max(1.0, scale_)
    return all(abs(v) <= bound for v in f.coeffs.values())


def to_floating(f: TruncatedSeries) -> TruncatedSeries:
    return make_series(f.dim, f.coeffs, order=f.order, backend=floating(), center=f.center)


# -- JSON round trip -----------------------------------------------------


def _scalar_to_json(v, backend: Backend):
    if backend.exact:
        return [f"{v.re.numerator}/{v.re.denominator}", f"{v.im.numerator}/{v.im.denominator}"]
    return [v.real, v.imag]


def _scalar_from_json(pair, backend: Backend):
    re, im = pair
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError(f"expected a number or a fraction string, got {pair!r}")
    if isinstance(re, str) or isinstance(im, str):
        q = QQi(_fraction(re), _fraction(im))
        str(q.re), str(q.im)  # a ValueError where a part has more digits than CPython prints
        return q
    return complex(_number(re), _number(im))


def _fraction(part) -> Fraction:
    """Fraction(part), but first a ValueError where the decimal exponent of a string
    ``part`` gives more digits than CPython prints: Fraction would build that power
    of ten whole.  A mantissa of m characters cancels at most m of those digits."""
    if isinstance(part, str):
        mantissa, _, exp = part.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        if exp and abs(int(exp)) > limit + len(mantissa):
            raise ValueError(f"decimal exponent {exp.strip()} gives more than {limit} digits")
    return Fraction(part)


def _index(value) -> int:
    """A JSON integer: operator.index takes no float, and here no bool either."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def to_json(f: TruncatedSeries) -> dict:
    return {
        "dim": f.dim,
        "backend": f.backend.tag,
        "center": [_scalar_to_json(c, f.backend) for c in f.center],
        "terms": [
            {"exp": list(e), "coeff": _scalar_to_json(v, f.backend)}
            for e, v in sorted(f.coeffs.items())
        ],
        "order": "exact" if f.order is None else f.order,
    }


def from_json(data: dict, eps: float = 1e-12) -> TruncatedSeries:
    tag = data.get("backend", "exact")
    if tag not in ("exact", "floating"):
        raise ValueError(f"unknown backend {tag!r}")
    backend = EXACT if tag == "exact" else floating(eps)
    dim = _index(data["dim"])
    if not 0 <= dim <= MAX_DIM:
        raise ValueError(f"series dimension must be in 0..{MAX_DIM} (MAX_DIM), got {dim}")
    center = [_scalar_from_json(c, backend) for c in data["center"]] if "center" in data else None
    order = data.get("order", "exact")
    order = None if order == "exact" else _index(order)
    terms = {tuple(map(_index, t["exp"])): _scalar_from_json(t["coeff"], backend)
             for t in data.get("terms", [])}
    return make_series(dim, terms, order=order, backend=backend, center=center)


def dumps(f: TruncatedSeries) -> str:
    return json.dumps(to_json(f))
