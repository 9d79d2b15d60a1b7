"""Property tests on random iterated blow-ups of P2, P1 x P1 and F2 and on
random quivers: the integer toric formulas against their Fraction oracles,
the cached cohomology and the `pair_hom` searches against raw triples, and
the four-vertex witness scan against the scan over every subset size."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivsurf.exceptional import pair_hom, search_abc, search_kronecker, solve_abc
from quivsurf.quivers import forbidden_full_subquiver, obstruction_report
from quivsurf.toric import ConsistencyError, KClass, ToricSurface, random_blowup_surface

from oracles import (
    euler_pairing_fraction,
    forbidden_subquiver_all_sizes,
    h0_fraction_box,
    intersect_by_table,
    random_acyclic_quiver,
    rank_one_bipartite_quiver,
    raw_cohomology,
    rr_chi_by_intersect,
    search_abc_by_triples,
    search_kronecker_by_triples,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

surfaces = st.integers(0, 2**32).map(lambda seed: random_blowup_surface(random.Random(seed)))

# small coefficients give nonempty polytopes of every shape; the large
# negative ones give empty polytopes inside wide bounding boxes; the wide
# mixed-sign ones give non-nef divisors, where the cone-vertex box is much
# smaller than the box of all pairwise boundary-line intersections
coefficients = st.one_of(st.integers(-6, 6), st.integers(-25, -12), st.integers(-15, 15))


def divisors(surface, elements=coefficients):
    return st.lists(elements, min_size=surface.n_rays, max_size=surface.n_rays).map(tuple)


@PROPERTY
@given(surfaces, st.data())
def test_h0_integer_box_matches_fraction_oracle(s, data):
    d = data.draw(divisors(s))
    assert s.h0_lattice_points(d) == h0_fraction_box(s, d)


@PROPERTY
@given(surfaces, st.data())
def test_h0_of_negative_divisors_is_zero(s, data):
    d = data.draw(divisors(s, st.integers(-12, -1)))
    assert s.h0_lattice_points(d) == 0 == h0_fraction_box(s, d)


@PROPERTY
@given(surfaces, st.data())
def test_rr_chi_and_intersect_match_table_formula(s, data):
    d = data.draw(divisors(s, st.integers(-10**6, 10**6)))
    e = data.draw(divisors(s, st.integers(-10**6, 10**6)))
    assert s.rr_chi(d) == rr_chi_by_intersect(s, d)
    assert s.intersect(d, e) == intersect_by_table(s, d, e) == s.intersect(e, d)


@PROPERTY
@given(surfaces, st.data())
def test_cohomology_matches_oracle_counts(s, data):
    d = data.draw(divisors(s, st.integers(-6, 6)))
    k_minus_d = tuple(-1 - c for c in d)
    h0, h1, h2 = s.cohomology(d)
    assert (h0, h2) == (h0_fraction_box(s, d), h0_fraction_box(s, k_minus_d))
    assert h0 - h1 + h2 == rr_chi_by_intersect(s, d)


def kclasses(surface):
    return st.builds(
        KClass,
        st.integers(-3, 3),
        divisors(surface, st.integers(-5, 5)),
        st.integers(-20, 20).map(lambda k: Fraction(k, 2)),
    )


@PROPERTY
@given(surfaces, st.data())
def test_euler_pairing_matches_fraction_formula(s, data):
    x, y = data.draw(kclasses(s)), data.draw(kclasses(s))
    expected = euler_pairing_fraction(s, x, y)
    if expected.denominator == 1:
        assert s.euler_pairing(x, y) == expected
    else:
        with pytest.raises(ConsistencyError):
            s.euler_pairing(x, y)


@PROPERTY
@given(surfaces, st.data())
def test_euler_pairing_on_realisable_classes(s, data):
    line = s.kclass_line(data.draw(divisors(s, st.integers(-5, 5))))
    i = data.draw(st.integers(0, s.n_rays - 1))
    curve = s.kclass_curve(s.ray_divisor(i))
    for x in (line, curve, s.kclass_point()):
        for y in (line, curve, s.kclass_point()):
            assert s.euler_pairing(x, y) == euler_pairing_fraction(s, x, y)
            assert s.euler_pairing(x, y) == s.euler_pairing(y, s.serre_twist(x))


@PROPERTY
@given(surfaces, st.data())
def test_cohomology_cache_never_mixes_up_divisors(s, data):
    pool = data.draw(st.lists(divisors(s, st.integers(-4, 4)), min_size=1, max_size=10))
    calls = st.tuples(st.sampled_from(("coh", "list", "neg", "h0", "pair")), st.sampled_from(pool))
    for call, d in data.draw(st.lists(calls, max_size=30)):
        if call == "coh":
            s.cohomology(d)
        elif call == "list":
            s.cohomology(list(d))
        elif call == "neg":
            s.cohomology(tuple(-c for c in d))
        elif call == "h0":
            s.h0_lattice_points(d)
        else:
            pair_hom(s, d)
    for d in pool:
        assert s.cohomology(d) == ToricSurface(s.rays).cohomology(d) == raw_cohomology(s, d)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(surfaces.filter(lambda s: s.picard_rank <= 4), st.integers(0, 2))
def test_searches_match_raw_triple_oracles(s, bound):
    coh = functools.lru_cache(maxsize=None)(lambda v: raw_cohomology(s, s.lift_pic(v)))
    rho = s.picard_rank
    for a, b, c in solve_abc(3):
        expected = search_abc_by_triples(coh, rho, a, b, c, bound)
        assert search_abc(s, a, b, c, bound).pairs == expected
    for n in range(1, 5):
        assert search_kronecker(s, n, bound) == search_kronecker_by_triples(coh, rho, n, bound)


@PROPERTY
@given(st.integers(0, 2**32), st.booleans())
def test_four_vertex_witness_matches_all_sizes_scan(seed, passing):
    rng = random.Random(seed)
    q = rank_one_bipartite_quiver(rng, 9) if passing else random_acyclic_quiver(rng, 9)
    witness = forbidden_full_subquiver(q)
    assert witness == forbidden_subquiver_all_sizes(q)
    assert (witness is None) == obstruction_report(q).passes_rank
    if passing:
        assert witness is None
