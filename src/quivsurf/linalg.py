"""Exact linear algebra over the integers.

Rank, determinant and inertia for the small integer bilinear forms
produced by quivers and surfaces. Every elimination runs on plain ints,
fraction-free (Bareiss, Math. Comp. 22, 1968), so no intermediate is a
fraction and no floating point is used anywhere: sign decisions (and
hence signatures) are exact. In the rank and determinant elimination a
row whose pivot-column entry is 0 waits, and is divided at its next
update by its own divisor, the pivot that last updated it: a stored row
is the row of Bareiss minors of the step that last updated it, so every
division is exact.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Optional, Sequence


class Signature(NamedTuple):
    """Inertia (n_plus, n_minus, n_zero) of a symmetric form over Q."""

    n_plus: int
    n_minus: int
    n_zero: int


def _as_ints(values, what: str) -> tuple:
    """values as a tuple of ints, converted exactly by operator.index: an
    entry that is not an integer (a float, a Fraction, a string) raises
    ValueError naming it, where int() would truncate or parse it. values is
    read once, into a tuple, so that a bad entry of an iterator can still be
    named; values that is not iterable raises ValueError too."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what}: expected a sequence, got {values!r}") from None
    try:
        return tuple([*map(operator.index, values)])
    except TypeError:
        bad = next((v for v in values if not hasattr(type(v), "__index__")), values)
        raise ValueError(f"{what} {bad!r} is not an integer") from None


def _as_int(value, what: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """value as an int, converted exactly by operator.index: the one check of
    every scalar count, index, bound and size. A non-integer, a value below
    least, or one outside [least, most] when most is given, raises
    ValueError naming what."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if most is not None:
        if not least <= value <= most:
            raise ValueError(f"{what} {value} out of range")
    elif least is not None and value < least:
        need = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {need}, got {value}")
    return value


def _int_rows(rows, what: str) -> list:
    """rows as fresh lists of ints, each row read by _as_ints, which names
    a bad entry ("{what} entry 0.5 is not an integer"): the one reader of
    integer grids. A grid or row that is not iterable raises ValueError."""
    try:
        return [list(_as_ints(row, f"{what} entry")) for row in rows]
    except TypeError:
        raise ValueError(f"{what}: expected a sequence, got {rows!r}") from None


def _square_ints(rows, what: str) -> list:
    """rows as a square list of int rows, read by _int_rows: the one check
    of every square integer matrix read as input. A non-integer entry, a
    grid or row that is not iterable, or an empty or non-square grid raises
    ValueError naming what."""
    rows = _int_rows(rows, what)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{what} must be a non-empty square")
    return rows


def _rect_ints(rows) -> list:
    """rows as a non-empty rectangular list of int rows, read by _int_rows:
    the check of every matrix that rank_rational and signature_symmetric read."""
    rows = _int_rows(rows, "matrix")
    if len(set(map(len, rows))) > 1:
        raise ValueError("entry grid does not match declared shape")
    if not rows or not rows[0]:
        raise ValueError("matrix must be non-empty")
    return rows


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


class ExactMatrix(tuple):
    """A non-empty rectangular tuple of int tuples, built only by from_rows,
    which checks rows as rank_rational and signature_symmetric do (each
    entry by operator.index, so a Fraction, float or string entry raises
    ValueError, as does an empty or ragged grid)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError("build an ExactMatrix with ExactMatrix.from_rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "ExactMatrix":
        return tuple.__new__(cls, [tuple(row) for row in _rect_ints(rows)])


def _echelon(a: list) -> tuple:
    """Fraction-free Bareiss elimination (Math. Comp. 22, 1968) of integer
    rows, in place: (rank, determinant). After k pivots each entry below
    them is a (k+1)-minor of the input. A row whose entry in the pivot
    column is 0 would only be scaled by p / prev, so it waits instead:
    last[r] is the pivot that last updated row r (1 at the start), and
    the row holds the minors of that step: the minors after the latest
    pivot prev times last[r] / prev. Its next update
    (p x - f t) // last[r], and the catch-up x * prev // last[r] of a row
    chosen as pivot, are then exact, because each result is again a row
    of minors. The determinant of square rows is the last pivot, signed
    by the row swaps, when every row has a pivot, else 0."""
    rank, sign, prev = 0, 1, 1
    last = [1] * len(a)
    for col in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            last[rank], last[pivot] = last[pivot], last[rank]
            sign = -sign
        top, d = a[rank], last[rank]
        if d != prev:
            top[col:] = [x * prev // d for x in top[col:]]
        p, tail = top[col], top[col + 1:]
        for r in range(rank + 1, len(a)):
            row = a[r]
            f = row[col]
            if f:
                d = last[r]
                row[col + 1:] = [(p * x - f * t) // d for x, t in zip(row[col + 1:], tail)]
                last[r] = p
        prev = p
        rank += 1
    return rank, sign * prev if rank == len(a) else 0


def rank_rational(rows: Iterable[Sequence]) -> int:
    """Rank over Q of integer rows, by fraction-free elimination of the copy
    that _rect_ints checks."""
    return _echelon(_rect_ints(rows))[0]


def signature_symmetric(rows: Iterable[Sequence]) -> Signature:
    """Inertia of a symmetric matrix by Bareiss elimination on its upper
    triangle: after pivot p with row u and previous pivot q, each trailing
    entry becomes (p b_ij - u_i u_j) / q, an exact division because it is a
    minor. The block is q times a Schur complement, so by Sylvester's law
    each pivot adds sign(p / q) to the inertia. A zero pivot with a nonzero
    partner is repaired by adding (or, when that would cancel, subtracting)
    the partner row and column, a unimodular congruence that keeps the
    division exact; a zero row adds to n_zero. _rect_ints checks the copy.
    """
    rows = _rect_ints(rows)
    # rows against columns as lists, which differ in length when rows is
    # not square
    if any(map(operator.ne, rows, map(list, zip(*rows)))):
        raise ValueError("signature requires a symmetric matrix")
    a = [row[i:] for i, row in enumerate(rows)]
    prev, signs = 1, []
    while a:
        top = a[0]
        if top[0] == 0:
            j = next((j for j in range(1, len(top)) if top[j]), None)
            if j is None:
                a = a[1:]
                continue
            # the new diagonal entry 2 a_0j + a_jj vanishes only for one
            # sign choice; column j of the full block is read off the triangle
            s = 1 if 2 * top[j] + a[j][0] else -1
            col = [a[k][j - k] for k in range(1, j)] + a[j]
            top = [2 * s * top[j] + a[j][0]] + [x + s * y for x, y in zip(top[1:], col)]
        p = top[0]
        signs.append((p > 0) == (prev > 0))
        u = top[1:]
        a = [[(p * x - ui * uj) // prev for x, uj in zip(row, u[i:])] for i, (row, ui) in enumerate(zip(a[1:], u))]
        prev = p
    return Signature(signs.count(True), signs.count(False), len(rows) - len(signs))
