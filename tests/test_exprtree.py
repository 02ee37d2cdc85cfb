"""Expression trees: one walker over points, numpy columns and series."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from okakit.errors import SchemaError
from okakit.exprtree import MAX_POW, evaluate, to_evaluable, to_series, validate
from okakit.series import evaluate as series_evaluate


def trees(dim, polynomial=False):
    """Hypothesis strategy: expression trees in ``dim`` variables; with
    ``polynomial`` no ``inv`` node."""
    number = st.floats(-2, 2).map(lambda x: round(x, 3))
    leaves = st.one_of(st.builds(lambda j: {"op": "var", "index": j}, st.integers(1, dim)),
                       st.builds(lambda re, im: {"op": "const", "re": re, "im": im}, number, number))

    def nodes(children):
        ops = [st.builds(lambda op, args: {"op": op, "args": args},
                         st.sampled_from(["add", "mul"]), st.lists(children, min_size=1, max_size=3)),
               st.builds(lambda a: {"op": "neg", "arg": a}, children),
               st.builds(lambda b, k: {"op": "pow", "base": b, "exp": k}, children, st.integers(0, 3))]
        if not polynomial:
            ops.append(st.builds(lambda a: {"op": "inv", "arg": a}, children))
        return st.one_of(ops)

    return st.recursive(leaves, nodes, max_leaves=8)


def points(dim, max_size=6):
    z = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
    return st.lists(st.lists(z, min_size=dim, max_size=dim), min_size=1, max_size=max_size)


def close(got, want) -> bool:
    """Within 1e-13 relative to the largest |want|, or absolute below 1."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@st.composite
def tree_and_points(draw, polynomial=False):
    dim = draw(st.integers(1, 3))
    return dim, draw(trees(dim, polynomial)), draw(points(dim))


def reference(tree, z):
    """``evaluate`` at one point, raising OverflowError where the value of any
    subtree is not finite: CPython's 1 / z overflows to inf + 0j without
    raising, and its inverse then reads 0j, where numpy reads nan."""
    for child in tree.get("args", []) + [tree[key] for key in ("arg", "base") if key in tree]:
        reference(child, z)
    value = evaluate(tree, z)
    if not cmath.isfinite(value):
        raise OverflowError(f"{tree['op']} is not finite at {z}")
    return value


@settings(max_examples=100, deadline=None)
@given(tree_and_points())
@example((2, {"op": "inv", "arg": {"op": "inv", "arg": {"op": "var", "index": 2}}}, [[0j, 2.2250738585e-313 + 0j]]))
def test_batched_values_match_pointwise_evaluate(case):
    dim, tree, pts = case
    try:
        want = [reference(tree, tuple(complex(v) for v in z)) for z in pts]
    except (ZeroDivisionError, OverflowError):
        assume(False)
    assume(np.all(np.isfinite(want)))
    assert close(to_evaluable(tree, dim).values(pts), want)


@settings(max_examples=60, deadline=None)
@given(tree_and_points(polynomial=True))
def test_series_lowering_matches_evaluate(case):
    dim, tree, pts = case
    degree = validate(tree, dim)
    if degree > MAX_POW or math.comb(degree + dim, dim) > math.comb(MAX_POW + 2, 2):
        with pytest.raises(SchemaError):
            to_series(tree, dim)
        return
    f = to_series(tree, dim)
    assert f.backend.exact
    assert close([complex(series_evaluate(f, z)) for z in pts], [evaluate(tree, tuple(z)) for z in pts])


def test_worked_example():
    # z1 z2^2 - 1/z1 + (0.5 + i)
    z1, z2 = {"op": "var", "index": 1}, {"op": "var", "index": 2}
    poly = {"op": "mul", "args": [z1, {"op": "pow", "base": z2, "exp": 2}]}
    tree = {"op": "add", "args": [poly, {"op": "neg", "arg": {"op": "inv", "arg": z1}},
                                  {"op": "const", "re": 0.5, "im": 1.0}]}
    assert evaluate(tree, (2, 3j)) == -18 + 1j
    assert to_evaluable(tree, 2).values([(2, 3j), (-1, 1)]).tolist() == [-18 + 1j, 0.5 + 1j]
    assert to_series(poly, 2).coeffs == {(1, 2): to_series({"op": "const", "re": 1}, 1).coeffs[(0,)]}


def test_constant_tree_fills_every_row():
    tree = {"op": "const", "re": 1.5, "im": -2.0}
    assert to_evaluable(tree, 2).values(np.zeros((4, 2))).tolist() == [1.5 - 2j] * 4
    assert to_series(tree, 2).coeffs == {(0, 0): to_series(tree, 1).coeffs[(0,)]}


def test_validate_reports_polynomial_trees():
    z1 = {"op": "var", "index": 1}
    assert validate({"op": "pow", "base": {"op": "neg", "arg": z1}, "exp": 3}, 1) == 3
    assert validate({"op": "add", "args": [z1, {"op": "inv", "arg": z1}]}, 1) is None
    with pytest.raises(SchemaError):
        to_series({"op": "inv", "arg": z1}, 1)
    with pytest.raises(SchemaError):
        validate({"op": "add", "args": [{"op": "inv", "arg": z1}, {"op": "var", "index": 2}]}, 1)


def test_validate_returns_the_degree():
    z1, z2, one = {"op": "var", "index": 1}, {"op": "var", "index": 2}, {"op": "const", "re": 1.0}

    def pow_(base, k):
        return {"op": "pow", "base": base, "exp": k}

    s = {"op": "add", "args": [z1, z2, one]}
    cases = [
        (one, 0), (z2, 1), ({"op": "neg", "arg": s}, 1), (pow_(one, 5), 0), (pow_(z1, 0), 0),
        ({"op": "mul", "args": [z1, s, pow_(z2, 3)]}, 5),
        ({"op": "add", "args": [one, pow_(s, 7), {"op": "mul", "args": [z1, z2]}]}, 7),
        (pow_(pow_(s, 3), 4), 12),
    ]
    for tree, degree in cases:
        assert validate(tree, 2) == degree
        assert max(map(sum, to_series(tree, 2).coeffs)) == degree
    assert validate(pow_({"op": "inv", "arg": s}, 2), 2) is None
    # the degree, not each exponent, bounds a lowering: nested exponents multiply
    nested = pow_(pow_(s, 12), 12)
    assert validate(nested, 2) == 144
    with pytest.raises(SchemaError, match="degree 144"):
        to_series(nested, 2)
    assert len(to_series(pow_(pow_(z1, 8), 8), 2).coeffs) == 1  # degree 64 still lowers
    with pytest.raises(SchemaError):
        to_series({"op": "mul", "args": [pow_(z1, 64), z2]}, 2)
    assert len(to_evaluable(nested, 2).values(np.zeros((2, 2)))) == 2  # evaluation needs no lowering


@pytest.mark.parametrize("dim, degree", [(1, 64), (2, 64), (3, 21), (4, 12), (8, 5), (16, 3)])
def test_lowering_bounded_by_its_terms(dim, degree):
    # at most the C(66, 2) = 2,145 terms of degree 64 in two variables: the largest
    # admitted degree of the all-ones linear form lowers, one more is refused
    def power(k):
        ones = [{"op": "var", "index": j} for j in range(1, dim + 1)] + [{"op": "const", "re": 1}]
        return {"op": "pow", "base": {"op": "add", "args": ones}, "exp": k}

    assert len(to_series(power(degree), dim).coeffs) == math.comb(degree + dim, dim)
    with pytest.raises(SchemaError):
        to_series(power(degree + 1), dim)
