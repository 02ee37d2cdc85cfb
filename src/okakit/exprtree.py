"""Closed-form expression trees for serializing functions over the CLI.

Nodes: {"op": "var", "index": j}  (1-based variable z_j)
       {"op": "const", "re": x, "im": y}
       {"op": "add"|"mul", "args": [...]}
       {"op": "neg"|"inv", "arg": ...}
       {"op": "pow", "base": ..., "exp": k}

Trees without ``inv`` describe polynomials and can be lowered to an exact
TruncatedSeries; any tree can be evaluated pointwise.
"""

from __future__ import annotations

from .cousin import Evaluable
from .errors import SchemaError
from .scalars import EXACT, Backend
from .series import TruncatedSeries, constant, mul, scale, variable


def _check(cond, msg):
    if not cond:
        raise SchemaError(msg)


def validate(tree, dim: int):
    _check(isinstance(tree, dict) and "op" in tree, "expression node must be an object with 'op'")
    op = tree["op"]
    if op == "var":
        idx = tree.get("index")
        _check(isinstance(idx, int) and 1 <= idx <= dim, f"variable index must be in 1..{dim}")
    elif op == "const":
        _check(isinstance(tree.get("re", 0), (int, float)), "const re must be a number")
        _check(isinstance(tree.get("im", 0), (int, float)), "const im must be a number")
    elif op in ("add", "mul"):
        args = tree.get("args")
        _check(isinstance(args, list) and args, f"'{op}' needs a non-empty args list")
        for a in args:
            validate(a, dim)
    elif op in ("neg", "inv"):
        _check("arg" in tree, f"'{op}' needs an arg")
        validate(tree["arg"], dim)
    elif op == "pow":
        _check(isinstance(tree.get("exp"), int) and tree["exp"] >= 0, "'pow' exponent must be a non-negative integer")
        _check("base" in tree, "'pow' needs a base")
        validate(tree["base"], dim)
    else:
        raise SchemaError(f"unknown expression op {op!r}")


def evaluate(tree, z) -> complex:
    op = tree["op"]
    if op == "var":
        return complex(z[tree["index"] - 1])
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
    validate(tree, dim)
    return Evaluable(lambda z: evaluate(tree, z))


def to_series(tree, dim: int, backend: Backend = EXACT) -> TruncatedSeries:
    """Lower a polynomial expression tree to an origin-centered series."""
    validate(tree, dim)
    return _lower(tree, dim, backend)


def _lower(tree, dim: int, backend: Backend) -> TruncatedSeries:
    op = tree["op"]
    if op == "var":
        return variable(dim, tree["index"] - 1, backend=backend)
    if op == "const":
        re, im = tree.get("re", 0.0), tree.get("im", 0.0)
        return constant(dim, complex(re, im), backend=backend)
    if op == "add":
        acc = _lower(tree["args"][0], dim, backend)
        for a in tree["args"][1:]:
            acc = acc + _lower(a, dim, backend)
        return acc
    if op == "mul":
        acc = _lower(tree["args"][0], dim, backend)
        for a in tree["args"][1:]:
            acc = mul(acc, _lower(a, dim, backend))
        return acc
    if op == "neg":
        return scale(_lower(tree["arg"], dim, backend), -1)
    if op == "pow":
        base = _lower(tree["base"], dim, backend)
        acc = constant(dim, 1, backend=backend)
        for _ in range(tree["exp"]):
            acc = mul(acc, base)
        return acc
    if op == "inv":
        raise SchemaError("'inv' is not polynomial; cannot lower to a series")
    raise SchemaError(f"unknown expression op {op!r}")
