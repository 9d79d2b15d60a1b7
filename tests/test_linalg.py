import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quivsurf import quivers
from quivsurf.linalg import (
    ExactMatrix,
    Signature,
    _echelon,
    _square_ints,
    rank_rational,
    signature_symmetric,
)

from oracles import (
    charpoly,
    det_fraction,
    identity,
    matmul,
    random_symmetric,
    random_unimodular,
    rank_fraction,
    signature_by_charpoly,
    signature_fraction,
    transpose,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

integers = st.integers(-4, 4)
# the wide branch gives entries in the hundreds, whose Bareiss minors and
# congruence blocks grow far past a machine word
entries = st.one_of(integers, st.integers(-600, 600))


@st.composite
def matrices(draw, square=False, elements=entries):
    """Half of them dense, up to 8x8, a third of those with a row made from
    two others. The other half sparse, like the quiver forms: up to 15 rows
    with 70-95% zero entries, wide nonzero entries too, and a zero row or
    column now and then, so that a row waits through several pivots before
    it is one."""
    if draw(st.booleans()):
        rows = draw(st.integers(1, 15))
        cols = rows if square else draw(st.integers(1, 15))
        zeros = draw(st.integers(70, 95))
        nonzero = st.one_of(elements, st.integers(-600, 600)).filter(bool)
        grid = [[0 if draw(st.integers(0, 99)) < zeros else draw(nonzero) for _ in range(cols)] for _ in range(rows)]
        if draw(st.integers(0, 3)) == 0:
            grid[draw(st.integers(0, rows - 1))] = [0] * cols
        if draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, cols - 1))
            for row in grid:
                row[k] = 0
        return ExactMatrix.from_rows(grid)
    rows = draw(st.integers(1, 8))
    cols = rows if square else draw(st.integers(1, 8))
    grid = draw(st.lists(st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows > 2 and draw(st.integers(0, 2)) == 0:
        grid[-1] = [a + 2 * b for a, b in zip(grid[0], grid[1])]
    return ExactMatrix.from_rows(grid)


@st.composite
def symmetric_matrices(draw, elements):
    """Up to 15x15, the size of the quiver forms. Half of them are a sum of
    a few +-rank-one forms with some diagonal entries set to zero, so that
    the partner repair runs after earlier pivots and the exact division by
    the previous pivot has to survive it. The others have a zero diagonal
    in half of them (the repair at the first pivot) and a zero row and
    column now and then."""
    n = draw(st.integers(1, 15))
    a = [[0] * n for _ in range(n)]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 4))):
            sign = draw(st.sampled_from((1, -1)))
            v = draw(st.lists(elements, min_size=n, max_size=n))
            for i in range(n):
                for j in range(n):
                    a[i][j] += sign * v[i] * v[j]
        for i in draw(st.sets(st.integers(0, n - 1))):
            a[i][i] = 0
        return ExactMatrix.from_rows(a)
    zero_diagonal = draw(st.booleans())
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = 0 if i == j and zero_diagonal else draw(elements)
    if n > 1 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            a[i][k] = a[k][i] = 0
    return ExactMatrix.from_rows(a)


@PROPERTY
@given(matrices())
def test_bareiss_rank_matches_fraction_elimination(m):
    assert rank_rational(m) == rank_fraction(m)


def echelon_det(m) -> int:
    """The determinant of integer rows as the CLI reads it off a Gram
    matrix: the second value of _echelon on a copy of the rows."""
    return _echelon([list(row) for row in m])[1]


@PROPERTY
@given(matrices(square=True, elements=integers))
def test_bareiss_det_matches_fraction_elimination(m):
    det = echelon_det(m)
    assert type(det) is int and det == det_fraction(m)


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 2**32))
def test_bareiss_det_of_unimodular_matrices(n, seed):
    m = random_unimodular(random.Random(seed), n, steps=4 * n)
    assert echelon_det(m) == det_fraction(m) in (1, -1)
    assert rank_rational(m) == n


@PROPERTY
@given(st.one_of(symmetric_matrices(integers), symmetric_matrices(entries)))
def test_integer_signature_matches_fraction_congruence(m):
    assert signature_symmetric(m) == signature_fraction(m)
    if len(m) <= 8:  # the Fraction charpoly takes about 0.26 s at 15x15
        assert signature_fraction(m) == signature_by_charpoly(m)


def test_building_a_matrix_keeps_no_tuples():
    """ExactMatrix builds its tuples from lists, at their exact size. A
    tuple() of a map or generator starts at 10 items and is resized, so
    CPython frees it into the free list of its final size (up to 2,000
    tuples each) and refills the 10-item list: built that way, 300 builds
    of one 17x17 matrix kept about 2,000 more blocks. The signature of the
    matrix, which is symmetric, keeps none either."""
    rows = [[(i + j) % 5 - 2 for j in range(17)] for i in range(17)]
    signature_symmetric(ExactMatrix.from_rows(rows))
    before = sys.getallocatedblocks()
    for _ in range(300):
        signature_symmetric(ExactMatrix.from_rows(rows))
    assert sys.getallocatedblocks() - before < 200


@PROPERTY
@given(st.one_of(matrices(), symmetric_matrices(integers)))
def test_routines_read_lists_tuples_and_exact_matrices_alike(m):
    # plain lists, tuples and ExactMatrix.from_rows of the same integer rows
    lists, tuples = [list(row) for row in m], tuple(map(tuple, m))
    assert ExactMatrix.from_rows(lists) == tuples
    sources = (lists, tuples, ExactMatrix.from_rows(lists))
    rank = rank_fraction(lists)
    assert [rank_rational(rows) for rows in sources] == [rank] * 3
    if list(map(tuple, lists)) == list(zip(*lists)):
        sig = signature_symmetric(lists)
        assert [signature_symmetric(rows) for rows in sources] == [sig] * 3
        assert sig == signature_fraction(lists)
        if len(lists) <= 8:  # the Fraction charpoly takes about 0.26 s at 15x15
            assert sig == signature_by_charpoly(lists)
    # the elimination runs on a copy: the caller's rows are left as they were
    assert lists == [list(row) for row in tuples]


@pytest.mark.parametrize("routine", [rank_rational, signature_symmetric])
@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 2], [3]], "entry grid does not match declared shape"),
        ([[1], [2, 3]], "entry grid does not match declared shape"),
        ([], "matrix must be non-empty"),
        ([[], []], "matrix must be non-empty"),
        (5, "matrix: expected a sequence, got 5"),
        ([[1], 5], "matrix entry: expected a sequence, got 5"),
    ],
)
def test_plain_rows_are_checked(routine, rows, message):
    # the shape messages of ExactMatrix.from_rows; non-integer entries are
    # in tests/test_values.py
    with pytest.raises(ValueError) as info:
        routine(rows)
    assert str(info.value) == message


def test_linalg_takes_the_rows_quivers_builds():
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert signature_symmetric([[2, 1], [1, 2]]) == Signature(2, 0, 0)
    assert not hasattr(quivers, "ExactMatrix")
    assert not hasattr(ExactMatrix, "_of")


def test_rank_zero_matrix():
    assert rank_rational(ExactMatrix.from_rows([[0] * 3] * 3)) == 0


def test_rank_identity():
    assert rank_rational(ExactMatrix.from_rows(identity(5))) == 5


def test_rank_rectangular():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert rank_rational(m) == 1


def test_signature_diagonal():
    m = ExactMatrix.from_rows([[2, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert signature_symmetric(m) == Signature(1, 1, 1)


def test_signature_hyperbolic_plane():
    m = ExactMatrix.from_rows([[0, 2], [2, 0]])
    assert signature_symmetric(m) == Signature(1, 1, 0)


def test_signature_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        signature_symmetric(ExactMatrix.from_rows([[0, 1], [0, 0]]))


def test_signature_rejects_rectangular():
    with pytest.raises(ValueError, match="^signature requires a symmetric matrix$"):
        signature_symmetric(ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_signature_zero_pivot_cancellation():
    # the +row addition would leave a zero diagonal entry; the
    # subtraction branch must kick in
    m = ExactMatrix.from_rows([[0, 1], [1, -2]])
    assert signature_symmetric(m) == signature_by_charpoly(m)


def test_rank_invariant_under_unimodular_congruence():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        u = random_unimodular(rng, n)
        congruent = matmul(matmul(transpose(u), m), u)
        assert rank_rational(congruent) == rank_rational(m)


def test_signature_invariant_under_unimodular_congruence():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        u = random_unimodular(rng, n)
        congruent = matmul(matmul(transpose(u), m), u)
        assert signature_symmetric(congruent) == signature_symmetric(m)


def test_signature_matches_charpoly_oracle():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        assert signature_symmetric(m) == signature_by_charpoly(m)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([])


def test_det_matches_charpoly_constant_term():
    # det(tI - M) at t = 0 is (-1)^n det(M)
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]  # singular
        m = ExactMatrix.from_rows(rows)
        assert echelon_det(m) == (-1) ** n * charpoly(m)[-1]
    for _ in range(20):
        assert echelon_det(random_unimodular(rng, rng.randint(1, 6))) in (1, -1)
    assert echelon_det(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1
    with pytest.raises(ValueError, match="^matrix must be a non-empty square$"):
        _square_ints([[1, 2, 3]], "matrix")
