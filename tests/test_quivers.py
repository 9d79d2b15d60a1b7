import itertools
import random

import pytest

from quivsurf.linalg import ExactMatrix, rank_rational
from quivsurf.quivers import (
    Quiver,
    affine_a,
    affine_d,
    affine_e,
    chi_minus,
    chi_plus,
    dynkin_d,
    dynkin_e,
    dynkin_euclidean_family,
    euler_matrix_simples,
    forbidden_full_subquiver,
    kronecker,
    linear_quiver,
    obstruction_report,
    paths_matrix,
    reflect,
    star,
    three_vertex,
)

from oracles import dfs_path_counts, induced_subquiver, random_acyclic_quiver

FOUR_VERTEX = Quiver(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))


def test_rejects_cycles_and_loops():
    with pytest.raises(ValueError):
        Quiver(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Quiver(1, ((0, 0),))
    with pytest.raises(ValueError):
        Quiver(2, ((0, 5),))


def test_euler_matrix_a2():
    assert euler_matrix_simples(linear_quiver(2)).int_rows() == [[1, -1], [0, 1]]


def test_euler_matrix_kronecker():
    assert euler_matrix_simples(kronecker(4)).int_rows() == [[1, -4], [0, 1]]


def test_euler_matrix_three_vertex():
    e = euler_matrix_simples(three_vertex(2, 3, 1))
    assert e.int_rows() == [[1, -2, -1], [0, 1, -3], [0, 0, 1]]


def test_euler_matrix_upper_triangular_in_topological_order():
    rng = random.Random(31)
    for _ in range(40):
        q = random_acyclic_quiver(rng)
        order = q.topological_order()
        e = euler_matrix_simples(q)
        for i in range(q.vertices):
            for j in range(i):
                assert e[order[i], order[j]] == 0
            assert e[order[i], order[i]] == 1


def test_paths_a2():
    assert paths_matrix(linear_quiver(2)).int_rows() == [[1, 1], [0, 1]]


def test_paths_three_vertex():
    assert paths_matrix(three_vertex(1, 1, 1)).int_rows()[0][2] == 2
    assert paths_matrix(three_vertex(2, 2, 0)).int_rows()[0][2] == 4


def test_paths_matrix_inverts_euler_matrix_and_matches_dfs():
    rng = random.Random(32)
    quivers = [random_acyclic_quiver(rng) for _ in range(40)]
    quivers += [random_acyclic_quiver(rng, 9) for _ in range(40)]
    # isolated vertices appended after the arrows, and edgeless quivers
    quivers += [Quiver(q.vertices + rng.randint(1, 3), q.arrows) for q in quivers[::4]]
    quivers += [Quiver(n, ()) for n in (1, 4)] + [linear_quiver(3), kronecker(3)]
    for q in quivers:
        p = paths_matrix(q)
        assert p * euler_matrix_simples(q) == ExactMatrix.identity(q.vertices)
        assert p.int_rows() == dfs_path_counts(q)


def test_chi_decomposition():
    eye = ExactMatrix.identity(3)
    assert chi_minus(eye) == ExactMatrix.from_rows([[0] * 3] * 3)
    assert chi_plus(eye) == eye + eye
    e = euler_matrix_simples(linear_quiver(2))
    assert chi_minus(e).int_rows() == [[0, -1], [1, 0]]
    assert chi_plus(e).int_rows() == [[2, -1], [-1, 2]]


def test_chi_minus_rank_is_even():
    rng = random.Random(33)
    for _ in range(60):
        q = random_acyclic_quiver(rng)
        assert rank_rational(chi_minus(euler_matrix_simples(q))) % 2 == 0


def test_obstruction_d4_passes():
    report = obstruction_report(dynkin_d(4))
    assert report.passes_rank and report.passes_signature
    assert report.forbidden_witness is None


def test_obstruction_a4_fails_rank():
    report = obstruction_report(linear_quiver(4))
    assert report.rank_chi_minus == 4
    assert not report.passes_rank
    assert report.forbidden_witness == (0, 1, 2, 3)


def test_obstruction_e8_rank():
    assert obstruction_report(dynkin_e(8)).rank_chi_minus == 8


def test_obstruction_accepts_matrix_input():
    gram = [[1, 2], [0, 1]]
    report = obstruction_report(ExactMatrix.from_rows(gram))
    assert report.forbidden_witness is None
    assert report.rank_chi_minus == 2


def test_forbidden_subquiver_a4_is_whole_quiver():
    assert forbidden_full_subquiver(linear_quiver(4)) == (0, 1, 2, 3)


def test_forbidden_subquiver_absent_for_four_vertex_example():
    # contains a linear 4-chain, but never as a full subquiver
    assert forbidden_full_subquiver(FOUR_VERTEX) is None
    assert obstruction_report(FOUR_VERTEX).rank_chi_minus == 2


def test_forbidden_subquiver_absent_for_a3():
    assert forbidden_full_subquiver(linear_quiver(3)) is None


def test_forbidden_subquiver_size_bound():
    with pytest.raises(ValueError):
        forbidden_full_subquiver(linear_quiver(16))
    report = obstruction_report(linear_quiver(16))
    assert report.rank_chi_minus == 16
    assert report.forbidden_witness is None


def test_forbidden_subquiver_minimality():
    # A4 with an extra isolated vertex: the witness should skip vertex 4
    q = Quiver(5, ((0, 1), (1, 2), (2, 3)))
    assert forbidden_full_subquiver(q) == (0, 1, 2, 3)


def test_chi_minus_principal_minor_is_induced_subquiver_chi_minus():
    # the witness scan reads chi^- of a full subquiver off chi^-(Q)
    rng = random.Random(34)
    quivers = [three_vertex(2, 1, 1), kronecker(3)]
    quivers += [random_acyclic_quiver(rng, 7) for _ in range(30)]
    assert any(len(set(q.arrows)) < len(q.arrows) for q in quivers[2:])
    for q in quivers:
        m = chi_minus(euler_matrix_simples(q))
        for size in (2, 4):
            for subset in itertools.combinations(range(q.vertices), size):
                sub = induced_subquiver(q, subset)
                minor = [[m[i, j] for j in subset] for i in subset]
                assert chi_minus(euler_matrix_simples(sub)) == ExactMatrix.from_rows(minor)
    assert induced_subquiver(three_vertex(2, 1, 1), (0, 1)).arrows == ((0, 1), (0, 1))


def test_reflect_a2():
    q = reflect(linear_quiver(2), 1)
    assert q.arrows == ((1, 0),)


def test_reflect_requires_sink_or_source():
    with pytest.raises(ValueError):
        reflect(linear_quiver(3), 1)


def test_reflect_twice_is_identity():
    q = star(3)
    assert reflect(reflect(q, 2), 2) == q


def test_reflect_preserves_obstruction_report():
    q = star(3)
    before = obstruction_report(q)
    after = obstruction_report(reflect(q, 1))
    assert (before.rank_chi_minus, before.signature_chi_plus) == (
        after.rank_chi_minus,
        after.signature_chi_plus,
    )


def test_reflect_invariance_random():
    rng = random.Random(34)
    checked = 0
    while checked < 40:
        q = random_acyclic_quiver(rng)
        candidates = [v for v in range(q.vertices) if q.is_sink(v) or q.is_source(v)]
        if not candidates:
            continue
        v = rng.choice(candidates)
        a, b = obstruction_report(q), obstruction_report(reflect(q, v))
        assert a.rank_chi_minus == b.rank_chi_minus
        assert a.signature_chi_plus == b.signature_chi_plus
        checked += 1


def test_relabel_invariance():
    rng = random.Random(35)
    for _ in range(40):
        q = random_acyclic_quiver(rng)
        perm = list(range(q.vertices))
        rng.shuffle(perm)
        relabelled = Quiver(q.vertices, tuple((perm[s], perm[t]) for s, t in q.arrows))
        a, b = obstruction_report(q), obstruction_report(relabelled)
        assert a.rank_chi_minus == b.rank_chi_minus
        assert a.signature_chi_plus == b.signature_chi_plus


def test_small_types_pass_and_minimal_forbidden_fail():
    for q in (linear_quiver(1), linear_quiver(2), linear_quiver(3), dynkin_d(4),
              affine_a(1), affine_a(2)):
        assert obstruction_report(q).passes
    for q in (linear_quiver(4), dynkin_d(5), affine_a(3)):
        report = obstruction_report(q)
        assert report.rank_chi_minus == 4
        assert not report.passes_rank


def test_affine_d4_is_the_reflection_class_of_the_star():
    # D~4 underlies the 4-leaf star, so it passes both obstructions; it is
    # the one Euclidean type that no forbidden full subquiver can exclude.
    assert affine_d(4) == star(4)
    report = obstruction_report(affine_d(4))
    assert report.passes
    assert forbidden_full_subquiver(affine_d(4)) is None
    # any reorientation of the star reaches the same verdicts
    sunk = star(4)
    for leaf in (1, 2, 3, 4):
        sunk = reflect(sunk, leaf)
    assert sunk.arrows == tuple((t, s) for s, t in star(4).arrows)
    assert obstruction_report(sunk).passes


def test_family_table_shapes():
    names = [name for name, _ in dynkin_euclidean_family()]
    assert names[:3] == ["A1", "A2", "A3"]
    assert "D~4" in names and "E~8" in names
    sizes = {name: q.vertices for name, q in dynkin_euclidean_family()}
    assert sizes["E8"] == 8 and sizes["E~8"] == 9 and sizes["D~7"] == 8
    assert sizes["A~7"] == 8


def test_affine_presets_validate():
    assert affine_d(5).vertices == 6
    assert affine_e(7).vertices == 8
    with pytest.raises(ValueError):
        affine_d(3)
    with pytest.raises(ValueError):
        dynkin_e(5)

