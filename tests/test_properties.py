"""Property tests on random iterated blow-ups of P2, P1 x P1 and F2 and on
random quivers: the integer toric formulas against their Fraction oracles,
the cached cohomology and the `pair_hom` searches against raw triples, the
level-set searches against the box loops they replace and `search_paths`
against a scan over every tuple of box vectors, the obstruction report on
both inputs of an Euler form against the Fraction rank and the
characteristic-polynomial signature, and the four-vertex witness scan
against the scan over every subset size and the Pfaffian scan."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quivsurf.exceptional import pair_hom, search_abc, search_kronecker, search_paths, solve_abc
from quivsurf.quivers import Quiver, euler_matrix_simples, forbidden_full_subquiver, obstruction_report
from quivsurf.toric import ConsistencyError, KClass, ToricSurface, random_blowup_surface

from oracles import (
    euler_pairing_fraction,
    forbidden_subquiver_all_sizes,
    h0_fraction_box,
    intersect_by_table,
    random_acyclic_quiver,
    rank_fraction,
    rank_one_bipartite_quiver,
    raw_cohomology,
    rr_chi_by_intersect,
    search_abc_by_box_loop,
    search_abc_by_triples,
    search_kronecker_by_box_loop,
    search_kronecker_by_triples,
    search_paths_by_tuple_scan,
    signature_by_charpoly,
    strong_pair_hom,
    transpose,
    witness_by_pfaffian,
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surfaces.filter(lambda s: s.n_rays <= 6), st.data())
def test_h0_tall_columns_match_fraction_oracle(s, data):
    # coefficients up to 60 make columns a hundred points tall or more
    d = data.draw(divisors(s, st.integers(-60, 60)))
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
        st.integers(-20, 20),
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


def integral_kclasses(surface):
    # 2 ch2 = c1^2 mod 2 makes every pairing an integer; ch2 is a
    # half-integer whenever c1^2 is odd
    def build(rank, c1, k):
        return KClass(rank, c1, surface.intersect(c1, c1) + 2 * k)

    return st.builds(build, st.integers(-3, 3), divisors(surface, st.integers(-5, 5)), st.integers(-10, 10))


@PROPERTY
@given(surfaces, st.data())
def test_euler_form_matches_fraction_formula_and_serre_duality(s, data):
    xs = data.draw(st.lists(integral_kclasses(s), min_size=1, max_size=4))
    ys = data.draw(st.lists(integral_kclasses(s), min_size=1, max_size=4))
    form = s.euler_form(xs, ys)
    assert form == [[euler_pairing_fraction(s, x, y) for y in ys] for x in xs]
    assert all(type(e) is int for row in form for e in row)
    # chi(x, y) = chi(y, S x) on random pairs, not only on the knum basis
    assert s.euler_form(ys, [s.serre_twist(x) for x in xs]) == [list(c) for c in zip(*form)]


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


@PROPERTY
@given(surfaces, st.data())
def test_cohomology_fast_paths_match_raw_oracle(s, data):
    # every answer is checked as it is returned, whichever entry point filled
    # the cache for that divisor: cohomology on a tuple or a list, or pair_hom
    # on D (which also looks up -D)
    pool = data.draw(st.lists(divisors(s, st.integers(-4, 4)), min_size=1, max_size=8))
    calls = st.tuples(st.sampled_from(("tuple", "list", "pair")), st.sampled_from(pool))
    for call, d in data.draw(st.lists(calls, min_size=1, max_size=30)):
        expected = raw_cohomology(s, d)
        if call == "tuple":
            assert s.cohomology(d) == expected
        elif call == "list":
            assert s.cohomology(list(d)) == expected
        else:
            strong = expected[1:] == (0, 0) and raw_cohomology(s, tuple(-c for c in d)) == (0, 0, 0)
            assert pair_hom(s, d) == (expected[0] if strong else None)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(surfaces.filter(lambda s: s.picard_rank <= 3), st.data())
def test_interleaved_searches_and_lookups_keep_the_cache_exact(s, data):
    # the level sets count every box vector uncached and cache none of them;
    # lookups of Picard box vectors, which the searches also count, and of
    # other divisors come before, between and after them
    picard = st.lists(st.integers(-2, 2), min_size=s.picard_rank, max_size=s.picard_rank).map(s.lift_pic)
    divisor = st.one_of(picard, divisors(s, st.integers(-4, 4)))
    calls = st.one_of(
        st.tuples(st.just("abc"), st.sampled_from(solve_abc(3)), st.integers(0, 2)),
        st.tuples(st.just("kronecker"), st.integers(1, 4), st.integers(0, 2)),
        st.tuples(st.sampled_from(("coh", "pair")), divisor),
    )
    for call in data.draw(st.lists(calls, min_size=1, max_size=12)):
        if call[0] == "abc":
            (a, b, c), bound = call[1:]
            assert search_abc(s, a, b, c, bound) == search_abc(ToricSurface(s.rays), a, b, c, bound)
        elif call[0] == "kronecker":
            n, bound = call[1:]
            assert search_kronecker(s, n, bound) == search_kronecker(ToricSurface(s.rays), n, bound)
        elif call[0] == "coh":
            s.cohomology(call[1])
        else:
            pair_hom(s, call[1])
    for d, coh in s._coh_cache.items():
        assert coh == raw_cohomology(s, d)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(surfaces.filter(lambda s: s.picard_rank <= 4), st.integers(0, 2))
def test_searches_match_raw_triple_oracles(s, bound):
    coh = functools.lru_cache(maxsize=None)(lambda v: raw_cohomology(s, s.lift_pic(v)))
    rho = s.picard_rank
    # the level-set searches also match the box loops they replace
    for a, b, c in solve_abc(3):
        expected = search_abc_by_triples(coh, rho, a, b, c, bound)
        assert search_abc(s, a, b, c, bound).pairs == expected == search_abc_by_box_loop(s, a, b, c, bound)
    # search_kronecker reads the kept L(n) and shares no code with the
    # engine, so it must also keep agreeing with the engine's 2-object case
    for n in range(1, 5):
        expected = search_kronecker_by_triples(coh, rho, n, bound)
        assert search_kronecker(s, n, bound) == expected == search_kronecker_by_box_loop(s, n, bound)
        assert expected == tuple(d for (d,) in search_paths(s, ((1, n), (0, 1)), bound))
    # and the whole level map, not only the levels a search reads: every
    # L(n) in box order, levels in order of first vector, no zero vector
    expected_levels: dict = {}
    for v in itertools.product(range(-bound, bound + 1), repeat=rho):
        n = strong_pair_hom(coh, v)
        if n is not None:
            expected_levels.setdefault(n, []).append(v)
    assert list(s._strong_pairs(bound)[0].items()) == [(n, tuple(vs)) for n, vs in expected_levels.items()]


@PROPERTY
@given(surfaces.filter(lambda s: s.picard_rank <= 3), st.integers(0, 2), st.integers(3, 4), st.data())
def test_search_paths_matches_tuple_scan(s, bound, n, data):
    rho = s.picard_rank
    if n == 4 and rho == 3:
        bound = min(bound, 1)  # the scan tests box^3: 27^3 tuples, not 125^3
    coh = functools.lru_cache(maxsize=None)(lambda v: raw_cohomology(s, s.lift_pic(v)))
    entries = st.integers(0, 3)
    paths = [[1 if i == j else 0 if j < i else data.draw(entries) for j in range(n)] for i in range(n)]
    assert search_paths(s, paths, bound) == search_paths_by_tuple_scan(coh, rho, paths, bound)
    # the premise of a Riemann-Roch gate in the level-set build: a strong
    # vector v with h0 sections has chi(v) = h0 and chi(-v) = 0
    levels, _ = s._strong_pairs(bound)
    assert all(
        s._chi(v + (0, 0)) == h0 and s._chi(tuple(-x for x in v) + (0, 0)) == 0 for h0, vs in levels.items() for v in vs
    )
    # random paths are rarely realisable, so also build a strong collection
    # one box vector at a time and search for its forward Hom dimensions
    def hom(x, y):
        return strong_pair_hom(coh, tuple(b - a for a, b in zip(x, y)))

    box = list(itertools.product(range(-bound, bound + 1), repeat=rho))
    ds = [(0,) * rho]
    for _ in range(n - 1):
        options = [v for v in box if all(hom(d, v) is not None for d in ds)]
        if not options:
            return
        ds.append(data.draw(st.sampled_from(options)))
    homs = [[hom(ds[i], ds[j]) if i < j else int(i == j) for j in range(n)] for i in range(n)]
    found = search_paths(s, homs, bound)
    assert tuple(ds[1:]) in found
    assert found == search_paths_by_tuple_scan(coh, rho, homs, bound)


@PROPERTY
@given(st.integers(0, 2**32))
def test_obstruction_report_reads_every_euler_form_alike(seed):
    # a quiver of up to 15 vertices, its Euler rows and those rows as
    # tuples, and unitriangular Gram rows of up to 12x12: the sizes the
    # obstruct benchmark sends
    rng = random.Random(seed)
    q = random_acyclic_quiver(rng, 15)
    rows = euler_matrix_simples(q)
    m = rng.randint(1, 12)
    gram = [[int(i == j) or (rng.choice((-2, -1, 0, 0, 1, 2, 3)) if j > i else 0) for j in range(m)] for i in range(m)]
    for e, sources in ((rows, (q, rows, tuple(map(tuple, rows)))), (gram, (gram,))):
        pairs = [list(zip(row, col)) for row, col in zip(e, transpose(e))]
        rank = rank_fraction([[x - y for x, y in row] for row in pairs])
        sig = signature_by_charpoly([[x + y for x, y in row] for row in pairs])
        for source in sources:
            report = obstruction_report(source)
            assert report[:4] == (rank, sig, rank <= 2, sig.n_minus <= 2)
            if source is not q:
                assert report.forbidden_witness is None


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


@PROPERTY
@given(st.integers(0, 2**32))
def test_four_vertex_witness_matches_pfaffian_scan(seed):
    # 4-15 vertices, all arrows or a sparse share of them, so that some
    # scans run far into the C(n, 4) subsets or find no witness at all
    rng = random.Random(seed)
    q = random_acyclic_quiver(rng, 15, 4)
    keep = rng.choice((0.05, 0.2, 1.0))
    q = Quiver(q.vertices, tuple(a for a in q.arrows if rng.random() < keep))
    assert forbidden_full_subquiver(q) == witness_by_pfaffian(q)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_topological_order_puts_every_arrow_forward(seed, isolated):
    # shuffled labels, up to three parallel copies of an arrow, the arrows
    # in random order, and isolated vertices appended after them
    rng = random.Random(seed)
    q = random_acyclic_quiver(rng, 15)
    arrows = [a for a in q.arrows for _ in range(rng.randint(1, 3))]
    rng.shuffle(arrows)
    q = Quiver(q.vertices + isolated, tuple(arrows))
    order = q.topological_order()
    assert sorted(order) == list(range(q.vertices))
    position = {v: i for i, v in enumerate(order)}
    assert all(position[s] < position[t] for s, t in q.arrows)
