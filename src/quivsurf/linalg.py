"""Exact linear algebra over the rationals.

Rank, determinant and inertia for the small integer bilinear forms
produced by quivers and surfaces. Everything runs on
:class:`fractions.Fraction`; no floating point is used anywhere, so sign
decisions (and hence signatures) are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


class Signature(NamedTuple):
    """Inertia (n_plus, n_minus, n_zero) of a symmetric form over Q."""

    n_plus: int
    n_minus: int
    n_zero: int


class FrozenValue:
    """Base of the validating value types: the fields are the __slots__,
    set once by the subclass __init__ through _init. Instances compare,
    hash and print by class and field values, and assigning or deleting
    a field raises AttributeError."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ExactMatrix(FrozenValue):
    """Immutable dense matrix with exact rational entries, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        entries = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        if rows < 1 or cols < 1:
            raise ValueError("matrix must be non-empty")
        self._init(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "ExactMatrix":
        grid = [list(r) for r in rows]
        if not grid:
            raise ValueError("matrix must be non-empty")
        return cls(len(grid), len(grid[0]), tuple(tuple(r) for r in grid))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix.from_rows(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix.from_rows(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = list(zip(*other.entries))
        return ExactMatrix.from_rows(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    @property
    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def int_rows(self) -> list:
        """Entries as plain ints; raises if any entry is non-integral."""
        if not self.is_integer:
            raise ValueError("matrix has non-integer entries")
        return [[int(x) for x in row] for row in self.entries]

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def _eliminate(m: ExactMatrix) -> tuple:
    """Row echelon form by exact Gaussian elimination:
    (rank, echelon rows, sign of the row permutation)."""
    a = [list(row) for row in m.entries]
    rank, sign = 0, 1
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        pv = a[rank][col]
        for r in range(rank + 1, m.rows):
            if a[r][col] != 0:
                f = a[r][col] / pv
                for c in range(col, m.cols):
                    a[r][c] -= f * a[rank][c]
        rank += 1
        if rank == m.rows:
            break
    return rank, a, sign


def rank_rational(m: ExactMatrix) -> int:
    """Rank over Q by exact Gaussian elimination."""
    return _eliminate(m)[0]


def det_rational(m: ExactMatrix) -> Fraction:
    """Determinant: the signed product of the echelon diagonal, which holds
    the pivots at full rank and ends in a zero row below full rank."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    _, a, sign = _eliminate(m)
    return sign * math.prod(a[i][i] for i in range(m.rows))


def signature_symmetric(m: ExactMatrix) -> Signature:
    """Inertia of a symmetric matrix by congruence diagonalisation over Q.

    Symmetric pivoting throughout: every row operation is paired with the
    same column operation, so the diagonal produced is congruent to the
    input and Sylvester's law gives the inertia. A zero diagonal entry
    with a nonzero partner in its row is repaired by adding (or, when the
    addition would cancel, subtracting) the partner row and column before
    pivoting.
    """
    if not m.is_square:
        raise ValueError("signature requires a square matrix")
    if not m.is_symmetric:
        raise ValueError("signature requires a symmetric matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    for i in range(n):
        if a[i][i] == 0:
            partner = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
            if partner is not None:
                j = partner
                # row/col addition is a congruence; the new diagonal entry is
                # 2*a[i][j] + a[j][j], which vanishes only for one sign choice.
                s = 1 if 2 * a[i][j] + a[j][j] != 0 else -1
                for k in range(n):
                    a[i][k] += s * a[j][k]
                for k in range(n):
                    a[k][i] += s * a[k][j]
        pivot = a[i][i]
        if pivot == 0:
            continue
        for r in range(i + 1, n):
            if a[r][i] != 0:
                f = a[r][i] / pivot
                for c in range(n):
                    a[r][c] -= f * a[i][c]
                for c in range(n):
                    a[c][r] -= f * a[c][i]
    diag = [a[i][i] for i in range(n)]
    n_plus = sum(1 for d in diag if d > 0)
    n_minus = sum(1 for d in diag if d < 0)
    return Signature(n_plus, n_minus, n - n_plus - n_minus)

