import random
from fractions import Fraction

import pytest

from quivsurf.linalg import (
    ExactMatrix,
    Signature,
    det_rational,
    rank_rational,
    signature_symmetric,
)

from oracles import (
    charpoly,
    random_symmetric,
    random_unimodular,
    signature_by_charpoly,
)


def test_rank_zero_matrix():
    assert rank_rational(ExactMatrix.from_rows([[0] * 3] * 3)) == 0


def test_rank_identity():
    assert rank_rational(ExactMatrix.identity(5)) == 5


def test_rank_rectangular():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert rank_rational(m) == 1


def test_rank_fractions():
    m = ExactMatrix.from_rows([[Fraction(1, 2), 1], [1, 2]])
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
    with pytest.raises(ValueError):
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
        assert rank_rational(u.transpose() * m * u) == rank_rational(m)


def test_signature_invariant_under_unimodular_congruence():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        u = random_unimodular(rng, n)
        assert signature_symmetric(u.transpose() * m * u) == signature_symmetric(m)


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
        assert det_rational(m) == (-1) ** n * charpoly(m)[-1]
    for _ in range(20):
        assert det_rational(random_unimodular(rng, rng.randint(1, 6))) in (1, -1)
    assert det_rational(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1
    with pytest.raises(ValueError):
        det_rational(ExactMatrix.from_rows([[1, 2, 3]]))
