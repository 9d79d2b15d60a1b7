import random

import pytest

from quivsurf.quivers import obstruction_report, three_vertex
from quivsurf.toric import UnsupportedExtError, add_divisors, blowup_p2, p1xp1, projective_plane
from quivsurf.exceptional import (
    Collection,
    CurveSheaf,
    LineBundle,
    abc_of,
    check_table_case,
    ext_dims,
    line_collection,
    pair_hom,
    search_abc,
    search_kronecker,
    solve_abc,
    verify_collection,
    verify_divisor_table,
    verify_star_family,
)


def a2_tilde_collection():
    s = blowup_p2(2)
    return line_collection(
        s, [s.zero_divisor(), s.lift_pic((1, 0, -1)), s.lift_pic((1, 0, 0))]
    )


def test_ext_dims_structure_sheaf_pair():
    s = projective_plane()
    c = line_collection(s, [s.zero_divisor(), s.zero_divisor()])
    assert ext_dims(c, 0, 0) == (1, 0, 0)


def test_ext_dims_del_pezzo_ray():
    s = blowup_p2(3)
    c = line_collection(s, [s.zero_divisor(), s.lift_pic((1, 0, 0, 0))])
    assert ext_dims(c, 0, 1) == (1, 0, 0)
    assert ext_dims(c, 1, 0) == (0, 0, 0)


def test_ext_dims_blowup_pair():
    s = blowup_p2(1)
    e_ray = s.self_intersections.index(-1)
    c = Collection(s, (LineBundle(s.zero_divisor()), CurveSheaf(e_ray)))
    assert ext_dims(c, 0, 1) == (1, 0, 0)
    assert ext_dims(c, 1, 0) == (0, 0, 0)
    assert ext_dims(c, 1, 1) == (1, 0, 0)


def test_verify_a2_tilde_collection():
    result = verify_collection(a2_tilde_collection(), strong=True)
    assert result.ok
    assert result.hom[0][1] == (1, 0, 0)
    assert result.hom[1][2] == (1, 0, 0)
    assert result.hom[0][2] == (2, 0, 0)


def test_verify_reports_first_backward_failure():
    s = projective_plane()
    neg_ray = tuple(-x for x in s.ray_divisor(0))
    result = verify_collection(line_collection(s, [s.zero_divisor(), neg_ray]), strong=True)
    assert not result.ok
    assert result.failure.reason == "backward"
    # h0 of the hyperplane bundle: three sections
    assert result.failure.ext == (3, 0, 0)


def test_verify_non_exceptional_diagonal():
    s = p1xp1()
    fiber = CurveSheaf(0)
    result = verify_collection(Collection(s, (fiber,)), strong=False)
    assert not result.ok
    assert result.failure.reason == "exceptional"
    assert result.failure.ext == (1, 1, 0)


def test_strongness_separated_from_exceptionality():
    # on the quadric, (O, O(1,-2)) is exceptional but its forward Ext sits
    # in degree 1, so only the strong check rejects it
    s = p1xp1()
    pair = line_collection(s, [s.zero_divisor(), s.lift_pic((1, -2))])
    assert verify_collection(pair, strong=False).ok
    result = verify_collection(pair, strong=True)
    assert not result.ok
    assert result.failure.reason == "forward"
    assert result.failure.ext == (0, 2, 0)


def test_endo_dims_and_abc():
    assert abc_of(a2_tilde_collection()) == (1, 1, 1)
    s = p1xp1()
    c = line_collection(s, [s.zero_divisor(), s.lift_pic((1, 0)), s.lift_pic((1, 1))])
    assert verify_collection(c).forward_hom()[0][2] == 4
    assert abc_of(c) == (2, 2, 0)


def test_abc_requires_strong_collection():
    s = projective_plane()
    c = line_collection(s, [s.zero_divisor(), s.canonical, s.zero_divisor()])
    with pytest.raises(ValueError):
        abc_of(c)


def test_twist_invariance():
    rng = random.Random(40)
    base = a2_tilde_collection()
    surface = base.surface
    reference = verify_collection(base, strong=True).hom
    for _ in range(10):
        t = tuple(rng.randint(-2, 2) for _ in range(surface.n_rays))
        twisted = line_collection(
            surface, [add_divisors(obj.divisor, t) for obj in base.objects]
        )
        assert verify_collection(twisted, strong=True).hom == reference


def test_solve_abc_families():
    sols = solve_abc(5)
    assert (2, 2, 0) in sols
    assert (1, 5, 1) in sols and (5, 1, 1) in sols
    assert not any(a == 3 and b == 2 for a, b, _ in sols)
    expected = set()
    for n in range(6):
        expected |= {(0, n, n), (n, 0, n), (1, n, 1), (n, 1, 1)}
    expected.add((2, 2, 0))
    assert set(sols) == expected
    assert sols == sorted(sols)


def test_negative_bounds_raise():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_abc(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        search_abc(blowup_p2(3), 1, 3, 1, bound=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        search_abc(p1xp1(), 3, 2, 0, bound=-1)  # checked before the triple
    with pytest.raises(ValueError, match="nonnegative"):
        search_abc(projective_plane(), -1, 0, -1)  # a + b = ab + c holds
    with pytest.raises(ValueError, match="nonnegative"):
        search_kronecker(p1xp1(), 1, -1)
    assert solve_abc(0) == [(0, 0, 0)]
    assert search_kronecker(p1xp1(), 1, 0) == ()


def test_search_rejects_impossible_triple():
    outcome = search_abc(p1xp1(), 3, 2, 0, bound=1)
    assert outcome.pairs == ()
    assert "a+b" in outcome.diagnostic


def test_search_finds_table_pair_on_del_pezzo():
    outcome = search_abc(blowup_p2(3), 1, 3, 1, bound=2)
    assert ((0, 0, 0, 1), (1, 1, 1, 1)) in outcome.pairs
    assert outcome.diagnostic is None
    assert list(outcome.pairs) == sorted(outcome.pairs)


def test_search_finds_isolated_case_on_quadric():
    outcome = search_abc(p1xp1(), 2, 2, 0, bound=2)
    assert ((1, 0), (1, 1)) in outcome.pairs


def test_search_results_verify_and_pass_obstructions():
    surface = blowup_p2(3)
    outcome = search_abc(surface, 1, 3, 1, bound=2)
    assert outcome.pairs
    for d_pic, e_pic in outcome.pairs:
        coll = line_collection(
            surface,
            [surface.zero_divisor(), surface.lift_pic(d_pic), surface.lift_pic(e_pic)],
        )
        a, b, c = abc_of(coll)
        assert (a, b, c) == (1, 3, 1)
        assert a + b == a * b + c
        assert obstruction_report(three_vertex(a, b, c)).passes


def test_search_kronecker_examples():
    quad = p1xp1()
    assert (1, 1) in search_kronecker(quad, 4, 2)
    assert search_kronecker(quad, 1, 5) == ()
    f1 = blowup_p2(1)
    assert search_kronecker(f1, 1, 2)  # the exceptional curve class
    with pytest.raises(ValueError):
        search_kronecker(quad, 0, 2)


def test_star_family_small_cases():
    empty = verify_star_family(0)
    assert empty.ok and empty.exceptional_rays == ()
    one = verify_star_family(1)
    assert one.ok and one.surface.n_rays == 4
    three = verify_star_family(3)
    assert three.ok
    # hub-to-leaf all (1,0,0), leaf-to-leaf all zero
    hom = three.verify.hom
    assert all(hom[0][j] == (1, 0, 0) for j in (1, 2, 3))
    assert all(hom[i][j] == (0, 0, 0) for i in (1, 2, 3) for j in (1, 2, 3) if i != j)


def test_star_family_bound():
    with pytest.raises(ValueError):
        verify_star_family(7)
    with pytest.raises(ValueError):
        verify_star_family(-1)


def test_divisor_table_first_rows():
    cases = verify_divisor_table(1)
    assert len(cases) == 8
    assert all(case.ok for case in cases)
    by_row = {case.row: case for case in cases}
    assert by_row["(0,2m,2m)"].abc == (0, 2, 2)
    assert by_row["(0,2m,2m)"].d_pic == (0, 1, 0, -1)
    assert by_row["(0,2m,2m)"].e_pic == (0, 1, 1, 0)
    assert by_row["(2m,1,1)"].abc == (2, 1, 1)
    assert by_row["(2m,1,1)"].d_pic == (0, 1, 1, 0)
    assert by_row["(2m,1,1)"].e_pic == (0, 1, 1, 1)


def test_divisor_table_detects_wrong_entry():
    surface = blowup_p2(3)
    failures = check_table_case(surface, (1, 3, 1), (0, 0, 0, 1), (1, 1, 1, 0))
    assert failures == (
        "(O, O(E-D)) is not a strong exceptional pair with 3 morphisms: "
        "O(E-D) has cohomology (1, 0, 0), O(D-E) has (0, 1, 0)",
        "(O, O(E)) is not a strong exceptional pair with 4 morphisms: "
        "O(E) has cohomology (3, 0, 0), O(-E) has (0, 0, 0)",
    )


def test_pair_hom():
    s = p1xp1()
    assert pair_hom(s, s.lift_pic((1, 1))) == 4
    assert pair_hom(s, s.lift_pic((0, 1))) == 2
    assert pair_hom(s, s.zero_divisor()) is None  # O(-0) = O has a section
    assert pair_hom(s, s.lift_pic((1, -2))) is None  # cohomology (0, 2, 0)
    assert pair_hom(s, s.lift_pic((-1, 0))) is None  # O(1,0) has sections
    assert pair_hom(s, s.lift_pic((-1, 1))) == 0  # O(-1,1) and O(1,-1) have no cohomology


def test_divisor_table_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_divisor_table(0)


def test_unsupported_curve_pair_propagates():
    s = blowup_p2(3)
    coll = Collection(s, (CurveSheaf(0), CurveSheaf(1)))
    with pytest.raises(UnsupportedExtError):
        verify_collection(coll)
