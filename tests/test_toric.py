import random
from fractions import Fraction

import pytest

from quivsurf.linalg import rank_rational, signature_symmetric
from quivsurf.quivers import chi_minus, chi_plus
from quivsurf.toric import (
    FanError,
    KClass,
    ToricSurface,
    UnsupportedExtError,
    add_divisors,
    blowup_p2,
    hirzebruch,
    neg_divisor,
    p1_cohomology,
    p1xp1,
    preset,
    projective_plane,
    random_blowup_surface,
    sub_divisors,
)

from oracles import h0_fraction_box, kunneth_quadric, p1_cohomology as p1_cohomology_oracle


def cyclic_variants(cycle):
    n = len(cycle)
    variants = []
    for r in range(n):
        rot = cycle[r:] + cycle[:r]
        variants.append(rot)
        variants.append(tuple(reversed(rot)))
    return variants


# --- construction -------------------------------------------------------------


def test_projective_plane():
    s = projective_plane()
    assert s.self_intersections == (1, 1, 1)
    assert s.picard_rank == 1
    assert s.k_squared() == 9


def test_bl2_fan():
    s = ToricSurface([(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    assert s.picard_rank == 3
    assert s.self_intersections == (0, 0, -1, -1, -1)


def test_degree_six_del_pezzo():
    s = blowup_p2(3)
    assert s.picard_rank == 4
    assert s.self_intersections == (-1,) * 6
    assert s.k_squared() == 6


def test_rays_sorted_counterclockwise():
    shuffled = ToricSurface([(0, -1), (1, 0), (-1, 0), (0, 1), (-1, -1)])
    assert shuffled.rays == ((1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1))


def test_rejects_non_primitive_ray():
    with pytest.raises(FanError):
        ToricSurface([(2, 0), (0, 1), (-1, -1)])


def test_rejects_singular_pair():
    with pytest.raises(FanError) as err:
        ToricSurface([(1, 0), (-1, 2), (0, -1)])
    assert "determinant" in str(err.value)


def test_rejects_incomplete_fan():
    with pytest.raises(FanError):
        ToricSurface([(1, 0), (1, 1), (0, 1)])


def test_rejects_duplicates_and_small_fans():
    with pytest.raises(FanError):
        ToricSurface([(1, 0), (1, 0), (0, 1), (-1, -1)])
    with pytest.raises(FanError):
        ToricSurface([(1, 0), (0, 1)])


# --- blow-ups --------------------------------------------------------------------


def test_blowup_p2_once_is_f1():
    s = projective_plane().blow_up(0)
    assert s.self_intersections in cyclic_variants(hirzebruch(1).self_intersections)


def test_blowup_p2_twice_matches_preset():
    s = projective_plane().blow_up(0).blow_up(2)
    assert blowup_p2(2).self_intersections in cyclic_variants(s.self_intersections)


def test_blowup_preserves_noether_identity():
    rng = random.Random(1)
    s = p1xp1()
    for _ in range(6):
        s = s.blow_up(rng.randrange(s.n_rays))
        assert s.k_squared() + s.n_rays == 12


def test_blowup_drops_k_squared():
    s = projective_plane()
    t = s.blow_up(1)
    assert t.picard_rank == s.picard_rank + 1
    assert t.k_squared() == s.k_squared() - 1


# --- intersection theory -----------------------------------------------------------


def test_intersections_on_p2():
    s = projective_plane()
    assert s.intersect(s.ray_divisor(0), s.ray_divisor(1)) == 1
    assert s.intersect(s.ray_divisor(0), s.ray_divisor(0)) == 1


def test_k_squared_on_quadric():
    assert p1xp1().k_squared() == 8


def test_rr_chi():
    s = projective_plane()
    assert s.rr_chi(s.zero_divisor()) == 1
    assert s.rr_chi(s.canonical) == 1
    assert s.rr_chi(s.ray_divisor(0)) == 3


def test_divisor_length_validation():
    with pytest.raises(ValueError):
        projective_plane().intersect((1, 0), (0, 1))


# --- cohomology -----------------------------------------------------------------


def test_h0_twisted_plane():
    s = projective_plane()
    assert s.h0_lattice_points((2, 0, 0)) == 6
    # linear equivalence: same class written on another ray
    assert s.h0_lattice_points((0, 2, 0)) == 6


def test_h0_of_large_negative_divisors_is_zero():
    # no positive and some negative coefficient: the polytope is empty
    for s in (projective_plane(), p1xp1(), hirzebruch(3), blowup_p2(3)):
        n = s.n_rays
        for d in ((-10**9,) * n, (0,) * (n - 1) + (-500,), tuple(-400 * (i % 2) for i in range(n))):
            assert s.h0_lattice_points(d) == 0
        d = (-60,) + (-1,) * (n - 1)
        assert s.h0_lattice_points(d) == 0 == h0_fraction_box(s, d)
    p2 = projective_plane()
    assert p2.h0_lattice_points((-301, -1, -1)) == 0
    # Serre duality: h2(O(-301)) = h0(O(298)) = 300 * 299 / 2
    assert p2.cohomology((-301, 0, 0)) == (0, 0, 44850)


def test_h0_trivial_bundle():
    for s in (projective_plane(), p1xp1(), blowup_p2(3), hirzebruch(3)):
        assert s.h0_lattice_points(s.zero_divisor()) == 1


def test_h0_quadric_bidegree():
    s = p1xp1()
    assert s.h0_lattice_points(s.lift_pic((1, 1))) == 4


def test_cohomology_structure_sheaf():
    for s in (projective_plane(), blowup_p2(2)):
        assert tuple(s.cohomology(s.zero_divisor())) == (1, 0, 0)


def test_cohomology_canonical_on_p2():
    s = projective_plane()
    assert tuple(s.cohomology(s.canonical)) == (0, 0, 1)


def test_cohomology_del_pezzo_ray():
    s = blowup_p2(3)
    assert tuple(s.cohomology(s.lift_pic((0, 0, 0, 1)))) == (1, 0, 0)


def test_cohomology_quadric_matches_kunneth():
    s = p1xp1()
    for a in range(-4, 5):
        for b in range(-4, 5):
            got = tuple(s.cohomology(s.lift_pic((a, b))))
            assert got == kunneth_quadric(a, b), (a, b)


def test_effective_divisors_have_sections():
    rng = random.Random(2)
    for _ in range(25):
        s = random_blowup_surface(rng)
        d = tuple(rng.randint(0, 2) for _ in range(s.n_rays))
        assert s.cohomology(d).h0 >= 1


def test_principal_divisors_are_invisible():
    rng = random.Random(3)
    for _ in range(10):
        s = random_blowup_surface(rng)
        for m in ((1, 0), (0, 1)):
            principal = tuple(m[0] * v[0] + m[1] * v[1] for v in s.rays)
            for i in range(s.n_rays):
                assert s.intersect(principal, s.ray_divisor(i)) == 0
            assert s.rr_chi(principal) == 1
            assert tuple(s.cohomology(principal)) == (1, 0, 0)


# --- K-theory ----------------------------------------------------------------------


def test_kclass_validation():
    with pytest.raises(ValueError):
        KClass(1, (0, 0, 0), Fraction(1, 3))
    k = KClass(0, (0, 0, 0), Fraction(3, 2))
    assert k.ch2 == Fraction(3, 2)


def test_kclass_constructors():
    s = blowup_p2(3)
    o = s.kclass_line(s.zero_divisor())
    assert (o.rank, o.ch2) == (1, 0)
    c = s.kclass_curve(s.ray_divisor(0))
    assert (c.rank, c.ch2) == (0, Fraction(1, 2))
    p = s.kclass_point()
    assert (p.rank, p.ch2) == (0, 1) and all(x == 0 for x in p.c1)
    with pytest.raises(ValueError):
        s.kclass_curve(s.zero_divisor())
    with pytest.raises(ValueError):
        s.kclass_curve(neg_divisor(s.ray_divisor(0)))


def test_euler_pairing_point_classes():
    s = blowup_p2(2)
    o, k = s.kclass_line(s.zero_divisor()), s.kclass_point()
    assert s.euler_pairing(o, k) == 1
    assert s.euler_pairing(k, o) == 1
    assert s.euler_pairing(k, k) == 0


def test_euler_pairing_curve_classes():
    s = blowup_p2(3)
    for i in range(3):
        for j in range(3):
            lhs = s.euler_pairing(
                s.kclass_curve(s.ray_divisor(i)), s.kclass_curve(s.ray_divisor(j))
            )
            assert lhs == -s.intersect(s.ray_divisor(i), s.ray_divisor(j))


def test_euler_pairing_line_bundles_is_riemann_roch():
    rng = random.Random(4)
    for _ in range(20):
        s = random_blowup_surface(rng)
        a = tuple(rng.randint(-2, 2) for _ in range(s.n_rays))
        b = tuple(rng.randint(-2, 2) for _ in range(s.n_rays))
        assert s.euler_pairing(s.kclass_line(a), s.kclass_line(b)) == s.rr_chi(
            sub_divisors(b, a)
        )


def test_serre_twist_fixes_point_class():
    s = blowup_p2(1)
    assert s.serre_twist(s.kclass_point()) == s.kclass_point()


def test_serre_twist_of_structure_sheaf():
    s = blowup_p2(1)
    o = s.kclass_line(s.zero_divisor())
    assert s.serre_twist(o) == s.kclass_line(s.canonical)


def test_serre_operator_unipotent():
    rng = random.Random(5)
    for _ in range(15):
        s = random_blowup_surface(rng)
        for x in s.knum_basis():
            y = s.serre_twist(x) - x
            y = s.serre_twist(y) - y
            y = s.serre_twist(y) - y
            assert y.is_zero


def test_serre_duality_on_classes():
    rng = random.Random(6)
    for _ in range(15):
        s = random_blowup_surface(rng)
        basis = s.knum_basis()
        for x in basis:
            for y in basis:
                assert s.euler_pairing(x, y) == s.euler_pairing(y, s.serre_twist(x))


def test_knum_gram_p2():
    s = projective_plane()
    gram = s.knum_gram()
    assert gram.int_rows() == [[0, 0, 1], [0, -1, -2], [1, 1, 1]]
    assert rank_rational(chi_minus(gram)) == 2
    assert signature_symmetric(chi_plus(gram)) == (1, 2, 0)


def test_knum_gram_del_pezzo_signature():
    gram = blowup_p2(3).knum_gram()
    assert rank_rational(chi_minus(gram)) == 2
    assert signature_symmetric(chi_plus(gram)) == (4, 2, 0)


def test_knum_theorems_on_random_surfaces():
    rng = random.Random(20)
    for _ in range(12):
        s = random_blowup_surface(rng)
        gram = s.knum_gram()
        assert rank_rational(chi_minus(gram)) == 2
        assert signature_symmetric(chi_plus(gram)) == (s.picard_rank, 2, 0)


# --- mixed Ext dimensions -------------------------------------------------------------


def test_ext_line_to_curve_values():
    s = blowup_p2(1)
    e_ray = s.self_intersections.index(-1)
    assert s.ext_line_to_curve(s.zero_divisor(), e_ray) == (1, 0, 0)
    dp6 = blowup_p2(3)
    two = add_divisors(dp6.ray_divisor(1), dp6.ray_divisor(5))
    assert dp6.intersect(two, dp6.ray_divisor(0)) == 2
    assert dp6.ext_line_to_curve(two, 0) == (0, 1, 0)
    assert dp6.intersect(dp6.ray_divisor(0), dp6.ray_divisor(0)) == -1
    assert dp6.ext_line_to_curve(dp6.ray_divisor(0), 0) == (2, 0, 0)
    for d in range(-6, 7):
        assert p1_cohomology(d) == p1_cohomology_oracle(d)


def test_ext_curve_pair_values():
    dp6 = blowup_p2(3)
    assert dp6.ext_curve_pair(0, 0) == (1, 0, 0)
    assert dp6.ext_curve_pair(0, 2) == (0, 0, 0)
    assert p1xp1().ext_curve_pair(0, 0) == (1, 1, 0)
    with pytest.raises(UnsupportedExtError):
        dp6.ext_curve_pair(0, 1)


def test_ext_triples_match_euler_pairing():
    # alternating sums of Ext dimensions must agree with the pairing on
    # classes, across all four object-pair shapes
    rng = random.Random(21)
    for _ in range(15):
        s = random_blowup_surface(rng)
        a = tuple(rng.randint(-2, 2) for _ in range(s.n_rays))
        ray = rng.randrange(s.n_rays)
        curve = s.kclass_curve(s.ray_divisor(ray))
        line = s.kclass_line(a)
        lc = s.ext_line_to_curve(a, ray)
        assert lc[0] - lc[1] + lc[2] == s.euler_pairing(line, curve)
        cl = s.ext_curve_to_line(ray, a)
        assert cl[0] - cl[1] + cl[2] == s.euler_pairing(curve, line)
        cc = s.ext_curve_pair(ray, ray)
        assert cc[0] - cc[1] + cc[2] == s.euler_pairing(curve, curve)


# --- presets -----------------------------------------------------------------------


def test_presets_registry():
    assert preset("dP6").rays == blowup_p2(3).rays
    assert preset("F0").rays == p1xp1().rays
    with pytest.raises(ValueError):
        preset("K3")
