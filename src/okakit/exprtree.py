"""Closed-form expression trees for serializing functions over the CLI.

Nodes: {"op": "var", "index": j}  (1-based variable z_j)
       {"op": "const", "re": x, "im": y}
       {"op": "add"|"mul", "args": [...]}
       {"op": "neg"|"inv", "arg": ...}
       {"op": "pow", "base": ..., "exp": k}

``evaluate`` is the one tree walker: it computes a tree over whatever its
variables are, complex numbers, numpy columns or series.  Trees without
``inv`` describe polynomials and lower to an exact TruncatedSeries.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SchemaError
from .evaluable import Evaluable
from .scalars import EXACT, Backend, _number
from .series import TruncatedSeries, variable, zero

# Largest exponent of a "pow" node, and largest degree of a tree lowered to a
# series: ``TruncatedSeries.__pow__`` lowers k as k successive products, and
# nested powers multiply their exponents, so the degree bounds the lowering work.
# A lowering may have at most the terms of a degree-MAX_POW polynomial in two variables.
MAX_POW = 64


def _check(cond, msg):
    if not cond:
        raise SchemaError(msg)


def validate(tree, dim: int) -> int | None:
    """Check a tree's shape against ``dim`` variables; return its degree as
    a polynomial (var 1, const 0, add the largest, mul the sum, pow k times
    the base's), or None if it has an ``inv`` node."""
    _check(isinstance(tree, dict) and "op" in tree, "expression node must be an object with 'op'")
    op = tree["op"]
    if op == "var":
        _check(1 <= _number(tree.get("index"), int) <= dim, f"variable index must be in 1..{dim}")
        return 1
    if op == "const":
        _number(tree.get("re", 0)), _number(tree.get("im", 0))
        return 0
    if op in ("add", "mul"):
        args = tree.get("args")
        _check(isinstance(args, list) and args, f"'{op}' needs a non-empty args list")
        degrees = [validate(a, dim) for a in args]
        if None in degrees:
            return None
        return max(degrees) if op == "add" else sum(degrees)
    if op in ("neg", "inv"):
        _check("arg" in tree, f"'{op}' needs an arg")
        degree = validate(tree["arg"], dim)
        return degree if op == "neg" else None
    if op == "pow":
        k = _number(tree.get("exp"), int)
        _check(0 <= k <= MAX_POW, f"'pow' exponent must be an integer in 0..{MAX_POW}")
        _check("base" in tree, "'pow' needs a base")
        degree = validate(tree["base"], dim)
        return None if degree is None else k * degree
    raise SchemaError(f"unknown expression op {op!r}")


def evaluate(tree, z):
    """The tree at the variables ``z``, where ``z[j]`` is z_{j+1}: complex
    numbers for one point, the columns ``P.T`` of an (m, n) array P for m
    points, or series for a lowering."""
    op = tree["op"]
    if op == "var":
        return z[tree["index"] - 1]
    if op == "const":
        return complex(tree.get("re", 0.0), tree.get("im", 0.0))
    if op == "add":
        return sum(evaluate(a, z) for a in tree["args"])
    if op == "mul":
        acc = 1 + 0j
        for a in tree["args"]:
            acc *= evaluate(a, z)
        return acc
    if op == "neg":
        return -evaluate(tree["arg"], z)
    if op == "inv":
        return 1.0 / evaluate(tree["arg"], z)
    if op == "pow":
        return evaluate(tree["base"], z) ** tree["exp"]
    raise SchemaError(f"unknown expression op {op!r}")


def to_evaluable(tree, dim: int) -> Evaluable:
    """The tree as a batched Evaluable: one ``evaluate`` over all points."""
    validate(tree, dim)
    return Evaluable.batched(lambda P: np.full(len(P), evaluate(tree, P.T), dtype=complex))


def to_series(tree, dim: int, backend: Backend = EXACT) -> TruncatedSeries:
    """Lower a polynomial expression tree to an origin-centered series."""
    degree = validate(tree, dim)
    _check(degree is not None, "'inv' is not polynomial; cannot lower to a series")
    _check(degree <= MAX_POW, f"a polynomial of degree {degree} is above the {MAX_POW} a series lowering allows")
    terms, most = math.comb(degree + dim, dim), math.comb(MAX_POW + 2, 2)
    _check(terms <= most, f"a polynomial of degree {degree} in {dim} variables has up to {terms} terms, "
                          f"above the {most} a series lowering allows")
    # adding the zero series turns a constant tree's complex value into a series
    return evaluate(tree, [variable(dim, j, backend=backend) for j in range(dim)]) + zero(dim, backend=backend)
