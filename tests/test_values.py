"""The value contract of the library's record and value types: equal
arguments give equal objects with equal hashes, fields are read-only, the
repr names the class, and each constructor rejects bad input with its
documented message."""

import copy
import pickle
from fractions import Fraction

import pytest

from quivsurf.exceptional import (
    AbcSearchResult,
    Collection,
    CurveSheaf,
    LineBundle,
    PairFailure,
    StarFamilyReport,
    TableCase,
    VerifyResult,
    check_table_case,
    line_collection,
    pair_hom,
)
from quivsurf.linalg import ExactMatrix, Signature, rank_rational, signature_symmetric
from quivsurf.quivers import ObstructionReport, Quiver, chi_minus, chi_plus, obstruction_report
from quivsurf.toric import KClass, ToricSurface, p1_cohomology, p1xp1, projective_plane

HOM = ((1, 0, 0), (0, 0, 0))

# (constructor, its arguments, one field name): every value and record type
VALUES = [
    (Quiver, (3, ((0, 1), (1, 2), (0, 2))), "arrows"),
    (KClass, (1, (2, -1), 3), "twice_ch2"),
    (LineBundle, ((1, 0, -1),), "divisor"),
    (Collection, (projective_plane(), (LineBundle((0, 0, 0)), CurveSheaf(1))), "objects"),
    (CurveSheaf, (2,), "ray"),
    (PairFailure, (1, 0, (0, 1, 0), "backward"), "reason"),
    (VerifyResult, (False, True, HOM, PairFailure(1, 0, (0, 1, 0), "backward")), "ok"),
    (AbcSearchResult, ((1, 2, 1), (((0, 1), (1, 1)),), None), "pairs"),
    (
        StarFamilyReport,
        (1, projective_plane(), (2,), VerifyResult(True, True, HOM, None), True),
        "dims_ok",
    ),
    (TableCase, ("(0,2m,2m)", 1, (0, 2, 2), (0, 1, 0, -1), (0, 1, 1, 0), ()), "failures"),
    (ObstructionReport, (2, Signature(1, 1, 1), True, True, None), "forbidden_witness"),
]


@pytest.mark.parametrize("build, args, field", VALUES, ids=[v[0].__qualname__.split(".")[0] for v in VALUES])
def test_value_contract(build, args, field):
    x, y = build(*args), build(*args)
    assert x is not y and x == y and hash(x) == hash(y)
    assert not x != y
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert getattr(x, field) == getattr(y, field)
    assert repr(x).startswith(f"{type(x).__name__}(")


def test_values_of_different_classes_or_fields_differ():
    assert Quiver(2, ((0, 1),)) != Quiver(2, ())
    assert KClass(0, (0, 0), 1) != KClass(0, (0, 0), 0)
    assert LineBundle((1,)) != Quiver(1, ())
    assert ExactMatrix.from_rows([[1]]) != ExactMatrix.from_rows([[1, 0]])


def test_exact_matrix_is_a_tuple_of_int_tuples():
    # the tuple contract: equal rows give equal matrices with equal hashes,
    # the rows cannot be replaced or given fields, and the repr is a tuple's
    x, y = ExactMatrix.from_rows([[1, 2], [3, 4]]), ExactMatrix.from_rows(((1, 2), (3, 4)))
    assert x is not y and x == y == ((1, 2), (3, 4)) and hash(x) == hash(y)
    assert isinstance(x, tuple) and all(type(row) is tuple for row in x)
    with pytest.raises(TypeError):
        x[0] = (5, 6)
    with pytest.raises(AttributeError):
        x.rows = 2
    assert repr(x) == "((1, 2), (3, 4))"


def test_exact_matrix_is_built_by_from_rows_only():
    # no declared-shape constructor, and no instance with unset fields
    for args in ((2, 2, ((1, 2), (3, 4))), ()):
        with pytest.raises(TypeError, match=r"^build an ExactMatrix with ExactMatrix\.from_rows$"):
            ExactMatrix(*args)


@pytest.mark.parametrize(
    "value",
    [
        Quiver(2, ((0, 1),)),
        KClass(1, (0, 0, 0), 0),
        LineBundle((0, 0, 0)),
        Collection(projective_plane(), (LineBundle((0, 0, 0)), CurveSheaf(1))),
        ExactMatrix.from_rows([[1, 2], [3, 4]]),
    ],
    ids=lambda value: type(value).__name__,
)
def test_values_survive_copy_and_pickle(value):
    # each copy is rebuilt through the checked constructor, so it is equal,
    # of the same class, and as read-only as the original
    pickles = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [copy.copy(value), copy.deepcopy(value), *pickles]:
        assert twin == value and type(twin) is type(value) and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            twin.rank = 2


def test_validating_constructors_normalise_fields():
    assert Quiver(2, [[0, 1]]) == Quiver(2, ((0, 1),))
    assert Quiver(2, [[0, 1]]).arrows == ((0, 1),)
    assert KClass(1, [0, 0], 0).twice_ch2 == 0 and KClass(1, [0, 0], 0).c1 == (0, 0)
    assert LineBundle([1, 2, 3]).divisor == (1, 2, 3)
    assert ExactMatrix.from_rows([[2]]) == ((2,),)
    row = ExactMatrix.from_rows([[2, True]])[0]
    assert list(map(type, row)) == [int, int]
    assert row == (2, 1)
    assert repr(Quiver(2, ((0, 1),))) == "Quiver(vertices=2, arrows=((0, 1),))"


def test_kclass_twice_ch2_is_an_int():
    c1 = (1, -2, 0)
    x, y = KClass(1, list(c1), 4), KClass(1, c1, 4)
    assert x == y and hash(x) == hash(y)
    assert type(x.twice_ch2) is int and type(y.twice_ch2) is int
    half = KClass(1, c1, -3)
    assert half != KClass(1, c1, -2) and half != KClass(1, c1, -4)
    assert half - half == KClass(0, (0, 0, 0), 0) and type((half - half).twice_ch2) is int
    s = projective_plane()
    assert s.kclass_line((1, 0, 0)).twice_ch2 == 1
    assert s.kclass_line((2, 0, 0)).twice_ch2 == 4
    assert s.kclass_point().twice_ch2 == 2
    assert type(s.serre_twist(s.kclass_point()).twice_ch2) is int


def test_kclass_subtraction_rejects_mismatched_c1():
    with pytest.raises(ValueError, match="c1 coefficients"):
        KClass(1, (1, 2, 3), 0) - KClass(1, (1, 2), 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Quiver(0, ()), "quiver vertex count must be at least 1, got 0"),
        (lambda: Quiver(2, ((0, 2),)), "arrow (0,2) out of range for 2 vertices"),
        (lambda: Quiver(2, ((1, 1),)), "loop at vertex 1: quiver must be acyclic"),
        (lambda: Quiver(3, ((0, 1), (1, 2), (2, 0))), "quiver has an oriented cycle"),
        (lambda: Quiver(3, ((0, 1, 2),)), "arrow (0, 1, 2) is not a (source, target) pair"),
        (lambda: Quiver(3, ((0, 1), (2,))), "arrow (2,) is not a (source, target) pair"),
        (lambda: Quiver(3, (5,)), "arrow 5 is not a (source, target) pair"),
        (lambda: Quiver(3, 5), "quiver arrows: expected a sequence, got 5"),
        (lambda: Quiver(3, ([0, 1.5],)), "arrow endpoint 1.5 is not an integer"),
        (lambda: ExactMatrix.from_rows([[1, 2], [3]]), "entry grid does not match declared shape"),
        (lambda: ExactMatrix.from_rows([]), "matrix must be non-empty"),
        (lambda: ExactMatrix.from_rows([[], []]), "matrix must be non-empty"),
        (lambda: ExactMatrix.from_rows([[], [1]]), "entry grid does not match declared shape"),
        (lambda: ExactMatrix.from_rows([["1/2"]]), "matrix entry '1/2' is not an integer"),
        (lambda: ExactMatrix.from_rows([[" 3 "]]), "matrix entry ' 3 ' is not an integer"),
        (lambda: ExactMatrix.from_rows([[0.1]]), "matrix entry 0.1 is not an integer"),
        (lambda: ExactMatrix.from_rows(5), "matrix: expected a sequence, got 5"),
        (lambda: ExactMatrix.from_rows([5]), "matrix entry: expected a sequence, got 5"),
        # math.gcd(0, 0) is 0, so the zero vector fails the primitivity test
        (lambda: ToricSurface([(0, 0), (1, 0), (0, 1)]), "ray (0, 0) is not primitive"),
        (lambda: Collection(projective_plane(), ()), "collection must be non-empty"),
        (lambda: Collection(projective_plane(), (CurveSheaf(3),)), "curve ray 3 out of range"),
        (
            lambda: Collection(projective_plane(), (LineBundle((0, 0)),)),
            "divisor has 2 coefficients but the fan has 3 rays",
        ),
    ],
)
def test_constructor_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


P2 = projective_plane()

# every library entry point that reads integers, each given one bad value x
NON_INTEGER_ENTRY_POINTS = {
    "ToricSurface": lambda x: ToricSurface([(x, 0), (0, 1), (-1, -1)]),
    "cohomology": lambda x: P2.cohomology((x, 0, 0)),
    "h0_lattice_points": lambda x: P2.h0_lattice_points((0, x, 0)),
    "rr_chi": lambda x: P2.rr_chi((0, 0, x)),
    "intersect": lambda x: P2.intersect((1, 0, 0), (x, 0, 0)),
    "lift_pic": lambda x: p1xp1().lift_pic((1, x)),
    "kclass_line": lambda x: P2.kclass_line((x, 0, 0)),
    "kclass_curve": lambda x: P2.kclass_curve((1, x, 0)),
    "ext_line_to_curve": lambda x: P2.ext_line_to_curve((x, 0, 0), 0),
    "ext_curve_to_line": lambda x: P2.ext_curve_to_line(0, (x, 0, 0)),
    "KClass c1": lambda x: KClass(1, (x, 0, 0), 0),
    "KClass rank": lambda x: KClass(x, (0, 0, 0), 0),
    "KClass twice_ch2": lambda x: KClass(1, (0, 0, 0), x),
    "LineBundle": lambda x: LineBundle((x, 0, 0)),
    # an iterator is read once: the bad entry is named, not the iterator
    "LineBundle from a generator": lambda x: LineBundle(c for c in (0, x, 0)),
    "line_collection": lambda x: line_collection(P2, [(0, 0, 0), (x, 0, 0)]),
    "pair_hom": lambda x: pair_hom(P2, (x, 0, 0)),
    "Quiver": lambda x: Quiver(2, ((0, x),)),
    "check_table_case": lambda x: check_table_case(P2, (1, x, 1), (1,), (2,)),
    "obstruction_report": lambda x: obstruction_report([[1, x], [0, 1]]),
    "ExactMatrix entry": lambda x: ExactMatrix.from_rows([[1, x], [0, 1]]),
    "ExactMatrix row from a generator": lambda x: ExactMatrix.from_rows([(c for c in (1, x)), (0, 1)]),
    "rank_rational": lambda x: rank_rational([[1, x], [0, 1]]),
    "rank_rational row from a generator": lambda x: rank_rational([(0, 1), (c for c in (1, x))]),
    "signature_symmetric": lambda x: signature_symmetric(((1, 0), (0, x))),
    "signature_symmetric row from a generator": lambda x: signature_symmetric([(1, 0), (c for c in (0, x))]),
    "chi_minus": lambda x: chi_minus([[1, x], [0, 1]]),
    "chi_plus": lambda x: chi_plus([[1, x], [0, 1]]),
    "p1_cohomology": p1_cohomology,
}


@pytest.mark.parametrize("bad", [1.9, 1.0, Fraction(1, 2), "1"], ids=repr)
@pytest.mark.parametrize("entry", NON_INTEGER_ENTRY_POINTS)
def test_non_integers_are_rejected_not_truncated(entry, bad):
    # int() would turn 1.9 into 1 and parse "1"; the value is named instead
    with pytest.raises(ValueError) as info:
        NON_INTEGER_ENTRY_POINTS[entry](bad)
    assert str(info.value).endswith(f"{bad!r} is not an integer")
