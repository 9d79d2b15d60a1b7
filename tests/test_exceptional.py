import itertools
import random

import pytest

from quivsurf.quivers import (
    Quiver,
    affine_a,
    affine_d,
    affine_e,
    dynkin_d,
    dynkin_e,
    kronecker,
    linear_quiver,
    obstruction_report,
    reflect,
    star,
    three_vertex,
    tree_quiver,
)
from quivsurf.toric import (
    ConsistencyError,
    ToricSurface,
    add_divisors,
    blowup_p2,
    hirzebruch,
    p1xp1,
    preset,
    projective_plane,
    random_blowup_surface,
)
from quivsurf import cli
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
    search_paths,
    solve_abc,
    star_family_surface,
    verify_collection,
    verify_divisor_table,
    verify_star_family,
)

from oracles import raw_cohomology, solve_abc_by_scan, strong_pair_hom


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


def test_solve_abc_matches_scan():
    for n in range(61):
        assert solve_abc(n) == solve_abc_by_scan(n), n


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


P2 = projective_plane()

# every library entry point that reads a scalar count, index, bound or size:
# name -> (call on that one scalar, least accepted value, largest or None).
# KClass rank and twice_ch2 take any int (see test_values.py); the paths
# entries of search_paths are covered by test_search_paths_rejects_malformed_paths.
SCALAR_ENTRY_POINTS = {
    "solve_abc": (solve_abc, 0, None),
    "search_abc bound": (lambda x: search_abc(P2, 1, 1, 1, bound=x), 0, None),
    "search_abc arrow count": (lambda x: search_abc(P2, 1, x, 1, bound=1), 0, None),
    "search_kronecker n": (lambda x: search_kronecker(p1xp1(), x, 1), 1, None),
    "search_kronecker bound": (lambda x: search_kronecker(p1xp1(), 2, x), 0, None),
    "search_paths bound": (lambda x: search_paths(p1xp1(), ((1, 1), (0, 1)), x), 0, None),
    "verify_star_family": (verify_star_family, 0, None),
    "star_family_surface": (star_family_surface, 0, None),
    "verify_divisor_table": (verify_divisor_table, 1, None),
    "ext_dims": (lambda x: ext_dims(line_collection(P2, [(0, 0, 0)] * 3), x, 0), 0, 2),
    "ray_divisor": (lambda x: P2.ray_divisor(x), 0, 2),
    "ext_line_to_curve": (lambda x: P2.ext_line_to_curve((1, 0, 0), x), 0, 2),
    "ext_curve_to_line": (lambda x: P2.ext_curve_to_line(x, (1, 0, 0)), 0, 2),
    "ext_curve_pair first": (lambda x: P2.ext_curve_pair(x, 0), 0, 2),
    "ext_curve_pair second": (lambda x: P2.ext_curve_pair(0, x), 0, 2),
    "Collection": (lambda x: Collection(P2, (CurveSheaf(x),)), 0, 2),
    "blow_up": (lambda x: P2.blow_up(x), 0, 2),
    "hirzebruch": (hirzebruch, 0, None),
    "Quiver": (lambda x: Quiver(x, ()), 1, None),
    "reflect": (lambda x: reflect(Quiver(3, ()), x), 0, 2),
    "linear_quiver": (linear_quiver, 1, None),
    "tree_quiver": (lambda x: tree_quiver([1, x]), 0, None),
    "star": (star, 0, None),
    "dynkin_d": (dynkin_d, 4, None),
    "affine_a": (affine_a, 1, None),
    "affine_d": (affine_d, 4, None),
    "kronecker": (kronecker, 0, None),
    "three_vertex a": (lambda x: three_vertex(x, 0, 0), 0, None),
    "three_vertex b": (lambda x: three_vertex(0, x, 0), 0, None),
    "three_vertex c": (lambda x: three_vertex(0, 0, x), 0, None),
}


def _bad_values(least, most) -> list:
    """2.5, "2", -1, the value just below the range and the one just above."""
    bad = [2.5, -1, "2"] + ([least - 1] if least > 0 else [])
    return bad + ([most + 1] if most is not None else [])


@pytest.mark.parametrize(
    "entry, bad",
    [
        pytest.param(entry, bad, id=f"{entry}-{bad!r}")
        for entry, (_, least, most) in SCALAR_ENTRY_POINTS.items()
        for bad in _bad_values(least, most)
    ],
)
def test_counts_and_bounds_are_checked_integers(entry, bad):
    # 2.5 used to give an empty search or leak TypeError, -1 to wrap round or
    # give a quiver with no arrows
    with pytest.raises(ValueError, match=r"must be nonnegative|must be at least \d+|out of range|is not an integer"):
        SCALAR_ENTRY_POINTS[entry][0](bad)


@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_scalar_range_ends_are_accepted(entry):
    call, least, most = SCALAR_ENTRY_POINTS[entry]
    for value in (least,) if most is None else (least, most):
        call(value)


@pytest.mark.parametrize("call, last", [(blowup_p2, 3), (dynkin_e, 8), (affine_e, 8)])
def test_lookup_indices_are_checked_integers(call, last):
    # a float key used to find the entry of the equal int
    call(last)
    with pytest.raises(ValueError, match="is not an integer"):
        call(float(last))
    with pytest.raises(ValueError, match="out of range"):
        call(last + 1)


RAY_ENTRIES = (
    "ray_divisor",
    "ext_line_to_curve",
    "ext_curve_to_line",
    "ext_curve_pair first",
    "ext_curve_pair second",
    "Collection",
)


@pytest.mark.parametrize("bad", [1.5, -1, 3, "0"], ids=repr)
@pytest.mark.parametrize("entry", RAY_ENTRIES)
def test_ray_indices_are_checked(entry, bad):
    # 1.5 used to match no ray and -1 to wrap round to the last one
    with pytest.raises(ValueError, match=r"ray \S+ (out of range|is not an integer)$"):
        SCALAR_ENTRY_POINTS[entry][0](bad)


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


def test_level_sets_memo_gives_fresh_surface_answers():
    # one surface serves every bound, n and triple in turn; the memoised
    # level sets of an earlier bound must never answer for another one
    surface = blowup_p2(2)
    calls = [(bound, call) for bound in (2, 1, 0, 2) for call in ((1, 1, 1), 2, (0, 2, 2), 1, (2, 2, 0), 3)]
    for bound, call in calls:
        fresh = blowup_p2(2)
        if isinstance(call, tuple):
            assert search_abc(surface, *call, bound=bound) == search_abc(fresh, *call, bound=bound)
        else:
            assert search_kronecker(surface, call, bound) == search_kronecker(fresh, call, bound)
        paths = ((1, 1, 2), (0, 1, 1), (0, 0, 1))
        assert search_paths(surface, paths, bound) == search_paths(fresh, paths, bound)
    assert sorted(surface._pair_levels) == [0, 1, 2]
    assert search_paths(surface, ((1,),), 2) == ((),)


@pytest.mark.parametrize("name", ["P1xP1", "Bl2P2", "dP6"])
@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("abc", [None, (0, 2, 2), (1, 0, 1), (1, 3, 1)], ids=str)
def test_search_caches_only_strong_vectors_their_negatives_and_outside_differences(name, bound, abc):
    # a search caches no cohomology triple of its box: the level sets count
    # every box point uncached, and only the differences E - D that leave
    # the box (at bound 1) go through the cache, with their negatives
    surface = preset(name)
    box = list(itertools.product(range(-bound, bound + 1), repeat=surface.picard_rank))
    hom = {v: strong_pair_hom(lambda x: raw_cohomology(surface, surface.lift_pic(x)), v) for v in box}
    strong = [v for v in box if hom[v] is not None]
    outside = set()
    if abc is None:
        search_kronecker(surface, 2, bound)
    else:
        a, b, c = abc
        search_abc(surface, a, b, c, bound)
        for d, e in itertools.product(strong, repeat=2):
            diff = tuple(y - x for x, y in zip(d, e))
            if hom[d] == a and hom[e] == a * b + c and max(map(abs, diff)) > bound:
                outside |= {surface.lift_pic(diff), surface.lift_pic(tuple(-x for x in diff))}
    cached = set(surface._coh_cache)
    assert not {d for d in cached if max(map(abs, d)) <= bound}
    assert cached <= outside


def counting_coh(surface) -> list:
    """Wrap surface._count_coh so that every divisor it counts is recorded."""
    counted, count = [], surface._count_coh
    surface._count_coh = lambda d: counted.append(d) or count(d)
    return counted


@pytest.mark.parametrize(
    "paths",
    [
        ((1, 1, 1), (0, 1, 1), (0, 0, 1)),  # paths[1][2] is not 1 - 1
        ((1, 2, 3), (0, 1, 2), (0, 0, 1)),
        ((1, 0, 2, 3), (0, 1, 2, 2), (0, 0, 1, 1), (0, 0, 0, 1)),  # additive but for (1, 3)
        ((1, 1, 2, 3), (0, 1, 1, 2), (0, 0, 1, 0), (0, 0, 0, 1)),  # additive but for (2, 3)
    ],
)
def test_non_additive_paths_are_answered_without_a_build(paths):
    # pair_hom = -K.D on strong pairs forces paths[i][j] = paths[0][j] - paths[0][i]
    surface = preset("dP6")
    counted = counting_coh(surface)
    assert search_paths(surface, paths, 2) == ()
    assert not surface._pair_levels and not counted and not surface._coh_cache


@pytest.mark.parametrize("name", ["P1xP1", "Bl2P2", "dP6"])
@pytest.mark.parametrize("bound", [1, 2])
def test_warm_searches_count_no_cohomology(name, bound):
    # after one search of each kind, the same searches read only the kept
    # level sets and the cache: no divisor is counted again
    surface = preset(name)
    calls = [lambda abc=abc: search_abc(surface, *abc, bound=bound) for abc in ((0, 2, 2), (1, 0, 1), (1, 3, 1))]
    calls += [lambda n=n: search_kronecker(surface, n, bound) for n in range(1, 5)]
    cold = [call() for call in calls]
    counted = counting_coh(surface)
    assert [call() for call in calls] == cold
    assert not counted


def test_box_charge_is_the_lattice_work_of_the_build():
    # the level-set build counts each box vector once, uncached
    rng = random.Random(30)
    for _ in range(30):
        s = random_blowup_surface(rng)
        while s.picard_rank > 4:
            s = random_blowup_surface(rng)
        bound = rng.randint(0, 2 if s.picard_rank <= 3 else 1)
        counted = counting_coh(s)
        s._strong_pairs(bound)
        assert len(counted) == (2 * bound + 1) ** s.picard_rank
        assert not s._coh_cache


def box_tests(s, d) -> int:
    """Ray inequalities of the lattice count of one divisor: its box points
    times the rays."""
    xs, ys = s._section_box(d)
    return s.n_rays * (xs.stop - xs.start) * (ys.stop - ys.start)


def coh_tests(s, d) -> int:
    """Ray inequalities of the two lattice counts of D and K - D."""
    return box_tests(s, d) + box_tests(s, tuple(-1 - c for c in d))


def spend(s, call) -> int:
    """The lattice budget that call() spends on surface s."""
    s._lattice_budget = budget = 10**12
    call()
    return budget - s._lattice_budget


def test_search_budget_covers_differences_outside_the_box():
    # this rho = 4 fan at bound 1: besides the 81 box vectors, (1, 1, 1)
    # counts differences E - D outside the box, which a charge of the box
    # alone did not see
    s = random_blowup_surface(random.Random(21))
    assert s.picard_rank == 4
    calls, h0 = [], s.h0_lattice_points
    s.h0_lattice_points = lambda d: calls.append(d) or h0(d)
    spent = spend(s, lambda: search_abc(s, 1, 1, 1, bound=1))
    assert spent == sum(box_tests(s, d) for d in calls)
    box_charge = sum(coh_tests(s, s._lift(v)) for v in s._picard_box(1))
    assert (spent, box_charge) == (4920, 3948)
    s = random_blowup_surface(random.Random(21))
    s._lattice_budget = box_charge
    with pytest.raises(ValueError, match="lattice budget"):
        search_abc(s, 1, 1, 1, bound=1)


def test_verify_charge_is_the_lattice_work_of_the_ext_table():
    # on a fresh surface, verify_collection counts each distinct line-bundle
    # difference once, and curve sheaves count nothing
    rng = random.Random(40)
    for _ in range(40):
        s = random_blowup_surface(rng)
        pool = [tuple(rng.randint(-2, 2) for _ in range(s.n_rays)) for _ in range(3)]
        objects = tuple(
            LineBundle(rng.choice(pool)) if rng.random() < 0.6 else CurveSheaf(rng.randrange(s.n_rays))
            for _ in range(rng.randint(1, 5))
        )
        c = Collection(s, objects)
        lines = [obj.divisor for obj in objects if isinstance(obj, LineBundle)]
        differences = {tuple(a - b for a, b in zip(e, d)) for d in lines for e in lines}
        spent = spend(s, lambda: verify_collection(c, strong=rng.random() < 0.5))
        assert spent == sum(coh_tests(s, d) for d in differences)


@pytest.mark.parametrize(
    "paths",
    [
        (),
        ((1, 2), (0, 1), (0, 0)),  # not square
        ((1, 2, 1), (0, 1)),  # a short row
        ((1, 2), (0, 2)),  # a diagonal entry other than 1
        ((0, 2), (0, 1)),
        ((1, 2), (1, 1)),  # a nonzero entry below the diagonal
        ((1, -1), (0, 1)),  # a negative entry
        ((1, 1.5), (0, 1)),  # not an integer
        [1],  # a row that is not a sequence
    ],
)
def test_search_paths_rejects_malformed_paths(paths):
    with pytest.raises(ValueError, match="paths"):
        search_paths(p1xp1(), paths, 1)


def test_search_paths_rejects_negative_bound():
    with pytest.raises(ValueError, match="nonnegative"):
        search_paths(p1xp1(), ((1, 1), (0, 1)), -1)


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


def test_star_family_beyond_six():
    # the constructor is unbounded, like every other library constructor:
    # S_8 sits on a blow-up of P2 with 24 rays
    report = verify_star_family(8)
    assert report.ok and report.surface.n_rays == 24 and len(report.exceptional_rays) == 8


def test_star_family_construction_failure_is_internal(monkeypatch, capsys):
    # a blow-up that also blows up the new ray's first wall leaves it a
    # (-2)-curve: a failed identity of the construction, not bad input
    blow_up = ToricSurface.blow_up
    monkeypatch.setattr(ToricSurface, "blow_up", lambda s, wall: blow_up(blow_up(s, wall), wall))
    with pytest.raises(ConsistencyError, match=r"is not a \(-1\)-curve"):
        verify_star_family(1)
    assert cli.main(["reproduce", "--m-max", "1"]) == cli.EXIT_INTERNAL_ERROR
    assert "internal error: ConsistencyError" in capsys.readouterr().err


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


def test_adjacent_curve_pair_has_ext1_both_ways():
    coll = Collection(blowup_p2(3), (CurveSheaf(0), CurveSheaf(1)))
    strong, weak = verify_collection(coll), verify_collection(coll, strong=False)
    assert strong.hom == weak.hom == (((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 0)))
    assert strong.failure.describe() == "forward Ext(0,1) not concentrated in degree 0: dimensions (0, 1, 0)"
    assert weak.failure.describe() == "backward Ext(0,1) nonzero: dimensions (0, 1, 0)"
