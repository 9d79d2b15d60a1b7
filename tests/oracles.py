"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the signature oracle
goes through the characteristic polynomial, rank, determinant and
signature also have Gaussian-elimination versions that run on Fractions
of the integer entries, the versions that the fraction-free integer
routines replace, path counts come from a direct
DFS, the quadric cohomology comes from the closed-form rational-curve
formulas combined degree by degree, and the toric formulas (lattice-point
box, intersection table, Riemann-Roch, Euler pairing) are the rational
Fraction versions that the integer code paths replace. The witness scan
over subsets of every size (which builds each induced subquiver), the
Pfaffian scan of four-vertex subsets (no rank, no `quivsurf` code) and the
searches that compare raw cohomology triples are the versions that the
principal-minor scan and `pair_hom` replace, and the scan over all pairs
(a, b) is the version that the closed-form `solve_abc` replaces. The box
loops that called `pair_hom` at every Picard vector on every search are
the versions that the memoised level sets and `search_paths` replace, and
the scan over every tuple of box vectors checks `search_paths` itself.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from quivsurf.exceptional import pair_hom
from quivsurf.linalg import Signature
from quivsurf.toric import sub_divisors


def matmul(a, b) -> list:
    """The product of two matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def fraction_rows(m) -> list:
    """The integer rows m as lists of Fractions, on which / stays exact
    where on ints it would give floats."""
    return [list(map(Fraction, row)) for row in m]


def charpoly(m) -> list:
    """Coefficients [1, a1, ..., an] of det(tI - M) for square integer
    rows M, by Faddeev-LeVerrier on lists of Fractions."""
    n = len(m)
    assert all(len(row) == n for row in m)
    rows = fraction_rows(m)
    coeffs = [Fraction(1)]
    b = identity(n)
    for k in range(1, n + 1):
        a = matmul(rows, b)
        ak = -sum(a[i][i] for i in range(n)) / k
        coeffs.append(ak)
        b = [[x + ak if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]
    return coeffs


def signature_by_charpoly(m) -> Signature:
    """Inertia of symmetric integer rows by sign variations of the
    characteristic polynomial (exact because all roots are real)."""
    coeffs = charpoly(m)
    n = len(m)
    n_zero = 0
    while coeffs[-1 - n_zero] == 0:
        n_zero += 1
    reduced = coeffs[: len(coeffs) - n_zero]
    nonzero = [c for c in reduced if c != 0]
    variations = sum(
        1 for x, y in zip(nonzero, nonzero[1:]) if (x > 0) != (y > 0)
    )
    n_plus = variations
    return Signature(n_plus, n - n_zero - n_plus, n_zero)


def _eliminate_fraction(m) -> tuple:
    """Row echelon form of integer rows by Gaussian elimination over
    Fractions: (rank, echelon rows, sign of the row permutation)."""
    a = fraction_rows(m)
    rows, cols = len(a), len(a[0])
    rank, sign = 0, 1
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        pv = a[rank][col]
        for r in range(rank + 1, rows):
            if a[r][col] != 0:
                f = a[r][col] / pv
                for c in range(col, cols):
                    a[r][c] -= f * a[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank, a, sign


def rank_fraction(m) -> int:
    """Rank over Q by Gaussian elimination over Fractions."""
    return _eliminate_fraction(m)[0]


def det_fraction(m) -> Fraction:
    """Determinant of square integer rows: the signed product of the
    Fraction echelon diagonal."""
    assert all(len(row) == len(m) for row in m)
    _, a, sign = _eliminate_fraction(m)
    return sign * math.prod(a[i][i] for i in range(len(m)))


def signature_fraction(m) -> Signature:
    """Inertia of symmetric integer rows by congruence diagonalisation over
    Fractions, pairing every row operation with the same column operation;
    a zero diagonal entry with a nonzero partner is repaired by adding (or
    subtracting) the partner row and column."""
    assert list(map(tuple, m)) == list(zip(*m))
    n = len(m)
    a = fraction_rows(m)
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
            if j is not None:
                s = 1 if 2 * a[i][j] + a[j][j] != 0 else -1
                for k in range(n):
                    a[i][k] += s * a[j][k]
                for k in range(n):
                    a[k][i] += s * a[k][j]
        pivot = a[i][i]
        if pivot == 0:
            continue
        for r in range(i + 1, n):
            if a[r][i] != 0:
                f = a[r][i] / pivot
                for c in range(n):
                    a[r][c] -= f * a[i][c]
                for c in range(n):
                    a[c][r] -= f * a[c][i]
    diag = [a[i][i] for i in range(n)]
    n_plus = sum(1 for d in diag if d > 0)
    n_minus = sum(1 for d in diag if d < 0)
    return Signature(n_plus, n_minus, n - n_plus - n_minus)


def dfs_path_counts(quiver) -> list:
    """Path-count matrix by memoised depth-first search (length 0 included)."""
    n = quiver.vertices
    out = [[] for _ in range(n)]
    for s, t in quiver.arrows:
        out[s].append(t)
    memo = {}

    def count(v, w):
        if (v, w) in memo:
            return memo[(v, w)]
        total = 1 if v == w else 0
        for u in out[v]:
            total += count(u, w)
        memo[(v, w)] = total
        return total

    return [[count(i, j) for j in range(n)] for i in range(n)]


def p1_cohomology(d: int) -> tuple:
    return (max(0, d + 1), max(0, -d - 1))


def kunneth_quadric(a: int, b: int) -> tuple:
    """Cohomology of the (a,b) line bundle on the quadric as the tensor
    product of the two rational-curve factors."""
    ha, hb = p1_cohomology(a), p1_cohomology(b)
    return (
        ha[0] * hb[0],
        ha[0] * hb[1] + ha[1] * hb[0],
        ha[1] * hb[1],
    )


def random_symmetric(rng: random.Random, n: int, magnitude: int = 4) -> list:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-magnitude, magnitude)
    return a


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> list:
    """Product of elementary integer row operations: determinant is +-1."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            f = rng.randint(-2, 2)
            for c in range(n):
                a[i][c] += f * a[j][c]
        elif op == 1:
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return a


def random_acyclic_quiver(rng: random.Random, max_vertices: int = 6, min_vertices: int = 1):
    """Random acyclic multigraph: arrows only go forward along a shuffled order."""
    from quivsurf.quivers import Quiver

    n = rng.randint(min_vertices, max_vertices)
    order = list(range(n))
    rng.shuffle(order)
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
                arrows.append((order[i], order[j]))
    return Quiver(n, tuple(arrows))


def rank_one_bipartite_quiver(rng: random.Random, max_vertices: int):
    """Random quiver with a_ij = x_i y_j arrows from sources i to sinks j.
    Its chi^- is x y^t - y x^t, of rank at most 2, so it passes the rank
    obstruction and has no forbidden full subquiver."""
    from quivsurf.quivers import Quiver

    n = rng.randint(1, max_vertices)
    sources = [v for v in range(n) if rng.random() < 0.5]
    sinks = [v for v in range(n) if v not in sources]
    x = {v: rng.choice((0, 1, 1, 2)) for v in sources}
    y = {v: rng.choice((0, 1, 1, 2)) for v in sinks}
    arrows = [(i, j) for i in sources for j in sinks for _ in range(x[i] * y[j])]
    return Quiver(n, tuple(arrows))


def induced_subquiver(quiver, subset):
    """Full subquiver on a vertex subset, relabelled 0..k-1 in subset order,
    keeping every arrow (parallel ones included) with both ends inside."""
    from quivsurf.quivers import Quiver

    pos = {v: k for k, v in enumerate(subset)}
    arrows = tuple((pos[s], pos[t]) for s, t in quiver.arrows if s in pos and t in pos)
    return Quiver(len(subset), arrows)


def forbidden_subquiver_all_sizes(quiver):
    """Smallest, then lexicographically first, vertex subset whose full
    subquiver has rank(chi^-) > 2, scanning subsets of every size and
    building each subquiver."""
    from quivsurf.linalg import rank_rational
    from quivsurf.quivers import chi_minus, euler_matrix_simples

    for size in range(4, quiver.vertices + 1):
        for subset in itertools.combinations(range(quiver.vertices), size):
            sub = induced_subquiver(quiver, subset)
            if rank_rational(chi_minus(euler_matrix_simples(sub))) > 2:
                return subset
    return None


def witness_by_pfaffian(quiver):
    """Lexicographically first four-vertex subset whose principal 4x4 minor
    of chi^- = E - E^t has a nonzero Pfaffian m_ab m_cd - m_ac m_bd +
    m_ad m_bc, or None. E = I - A is built here from the arrows, and a
    skew 4x4 minor is nonsingular exactly when its Pfaffian is nonzero."""
    n = quiver.vertices
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for s, t in quiver.arrows:
        e[s][t] -= 1
    m = [[e[i][j] - e[j][i] for j in range(n)] for i in range(n)]
    for a, b, c, d in itertools.combinations(range(n), 4):
        if m[a][b] * m[c][d] - m[a][c] * m[b][d] + m[a][d] * m[b][c]:
            return (a, b, c, d)
    return None


# --- toric surfaces ------------------------------------------------------------


def h0_fraction_box(surface, d) -> int:
    """Lattice points of {m : <m, v_i> >= -d_i}, scanning the integer
    bounding box of the pairwise boundary-line intersections, which are
    computed as Fractions."""
    rays = surface.rays
    xs, ys = [], []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            det = rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0]
            if det == 0:
                continue
            xs.append(Fraction(d[j] * rays[i][1] - d[i] * rays[j][1], det))
            ys.append(Fraction(d[i] * rays[j][0] - d[j] * rays[i][0], det))
    return sum(
        1
        for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1)
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1)
        if all(x * v[0] + y * v[1] >= -di for v, di in zip(rays, d))
    )


def intersect_by_table(surface, d, e) -> int:
    """D.E from the intersection table: D_i^2 on the diagonal, 1 for
    adjacent rays (distinct, as there are at least 3), 0 otherwise."""
    n = surface.n_rays
    total = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                entry = surface.self_intersections[i]
            elif (i - j) % n in (1, n - 1):
                entry = 1
            else:
                entry = 0
            total += d[i] * e[j] * entry
    return total


def rr_chi_by_intersect(surface, d) -> Fraction:
    """1 + (D^2 - K.D)/2 as a Fraction, with K = -sum D_i."""
    k = (-1,) * surface.n_rays
    return 1 + Fraction(
        intersect_by_table(surface, d, d) - intersect_by_table(surface, k, d), 2
    )


def euler_pairing_fraction(surface, x, y) -> Fraction:
    """chi(x, y) = r_x ch2_y + r_y ch2_x - c1_x.c1_y
    - (K/2).(r_x c1_y - r_y c1_x) + r_x r_y, in Fractions, with
    ch2 = twice_ch2 / 2."""
    k = (-1,) * surface.n_rays
    mixed = [x.rank * b - y.rank * a for a, b in zip(x.c1, y.c1)]
    return (
        x.rank * Fraction(y.twice_ch2, 2)
        + y.rank * Fraction(x.twice_ch2, 2)
        - intersect_by_table(surface, x.c1, y.c1)
        - Fraction(intersect_by_table(surface, k, mixed), 2)
        + x.rank * y.rank
    )


def raw_cohomology(surface, d) -> tuple:
    """(h0, h1, h2) of O(D) from two lattice counts and Riemann-Roch,
    bypassing the surface's cohomology cache."""
    h0 = surface.h0_lattice_points(d)
    h2 = surface.h0_lattice_points(tuple(-1 - c for c in d))
    return (h0, h0 + h2 - surface.rr_chi(d), h2)


def strong_pair_hom(coh, v):
    """pair_hom from raw triples: coh maps a Picard vector to the cohomology
    triple of its divisor."""
    h0, h1, h2 = coh(v)
    if h1 or h2 or coh(tuple(-x for x in v)) != (0, 0, 0):
        return None
    return h0


def search_abc_by_triples(coh, rho, a, b, c, bound) -> tuple:
    """The (D, E) pairs of search_abc, comparing raw triples: coh maps a
    Picard vector to the cohomology triple of its divisor."""
    box = list(itertools.product(range(-bound, bound + 1), repeat=rho))
    d_candidates = [v for v in box if strong_pair_hom(coh, v) == a]
    e_candidates = [v for v in box if strong_pair_hom(coh, v) == a * b + c]
    return tuple(
        (d, e)
        for d in d_candidates
        for e in e_candidates
        if strong_pair_hom(coh, tuple(ei - di for di, ei in zip(d, e))) == b
    )


def search_kronecker_by_triples(coh, rho, n, bound) -> tuple:
    """The Picard vectors of search_kronecker, comparing raw triples."""
    return tuple(
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=rho)
        if strong_pair_hom(coh, v) == n
    )


def search_abc_by_box_loop(surface, a, b, c, bound) -> tuple:
    """The (D, E) pairs of search_abc on a solvable triple, by one pair_hom
    per box point and per candidate pair, with nothing kept between calls."""
    box = list(itertools.product(range(-bound, bound + 1), repeat=surface.picard_rank))
    homs = [pair_hom(surface, surface.lift_pic(v)) for v in box]
    d_candidates = [v for v, n in zip(box, homs) if n == a]
    e_candidates = [v for v, n in zip(box, homs) if n == a * b + c]
    return tuple(
        (d, e)
        for d in d_candidates
        for e in e_candidates
        if pair_hom(surface, surface.lift_pic(sub_divisors(e, d))) == b
    )


def search_kronecker_by_box_loop(surface, n, bound) -> tuple:
    """The Picard vectors of search_kronecker, by one pair_hom per box point."""
    return tuple(
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=surface.picard_rank)
        if pair_hom(surface, surface.lift_pic(v)) == n
    )


def search_paths_by_tuple_scan(coh, rho, paths, bound) -> tuple:
    """The tuples of search_paths, by testing every (D_1, ..., D_{n-1}) in
    box^(n-1), in lexicographic order, on every pair i < j with D_0 = 0."""
    n = len(paths)
    box = list(itertools.product(range(-bound, bound + 1), repeat=rho))
    zero = (0,) * rho
    return tuple(
        ds
        for ds in itertools.product(box, repeat=n - 1)
        if all(
            strong_pair_hom(coh, tuple(y - x for x, y in zip(di, dj))) == paths[i][j]
            for (i, di), (j, dj) in itertools.combinations(enumerate((zero,) + ds), 2)
        )
    )


def solve_abc_by_scan(max_value: int) -> list:
    """The triples of solve_abc, found by scanning all (max_value + 1)^2
    pairs (a, b) in lexicographic order."""
    solutions = []
    for a in range(max_value + 1):
        for b in range(max_value + 1):
            c = a + b - a * b
            if 0 <= c <= max_value:
                solutions.append((a, b, c))
    return solutions
