"""``Evaluable``, the black box every solution and density is, with its row-block and sup helpers."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI_I = 2j * cmath.pi

# Bound on temporaries: entries per Cauchy (points x nodes) or closed-form
# seam (rows x pole terms, ``merge.PoleSeams``) block.
BLOCK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class Evaluable:
    """Immutable black box: point of C^n -> complex.

    ``fn`` maps one point (a tuple) to its value.  The optional ``many`` maps
    an (m, n) complex array of points to their (m,) values; ``values`` calls
    it when present and loops over ``fn`` otherwise.
    """

    fn: Callable
    many: Callable | None = None

    @classmethod
    def batched(cls, many: Callable) -> "Evaluable":
        """Evaluable whose scalar ``fn`` is ``many`` on one row."""
        return cls(lambda z: complex(many(np.array([z], dtype=complex))[0]), many)

    def __call__(self, z: Sequence) -> complex:
        return self.fn(tuple(complex(v) for v in z))

    def values(self, points) -> np.ndarray:
        P = np.asarray(points, dtype=complex)
        if self.many is not None:
            return self.many(P)
        return np.array([self.fn(tuple(z)) for z in P.tolist()], dtype=complex)

    def _combine(self, other: "Evaluable", op: Callable) -> "Evaluable":
        return Evaluable.batched(lambda P: op(self.values(P), other.values(P)))

    def __add__(self, other: "Evaluable") -> "Evaluable":
        return self._combine(other, np.add)

    def __sub__(self, other: "Evaluable") -> "Evaluable":
        return self._combine(other, np.subtract)


def row_blocks(m: int, width: int, block: Callable) -> np.ndarray:
    """block(rows), the (rows,) values of rows 0..m-1 from temporaries of
    ``width`` entries per row, in slices of at most BLOCK_ENTRIES entries."""
    step = max(1, BLOCK_ENTRIES // width)
    if m <= step:  # the rows fit one block, as one row does: the same values, unsliced
        return block(slice(None))
    out = np.empty(m, dtype=complex)
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        out[rows] = block(rows)
    return out


def sup_abs(values) -> float:
    """Largest |v|, and NaN when any |v| is NaN: the builtin ``max`` would
    keep a NaN only if it came first."""
    return float(np.max(np.abs(values), initial=0.0))

