"""Smooth complete toric surfaces with exact intersection theory.

A surface is an ordered cycle of primitive lattice rays in Z^2, sorted
counterclockwise; every adjacent pair must span a basis of the lattice
(determinant +1), which is exactly smoothness plus completeness. The wall
relation v_{i-1} + v_{i+1} = -(D_i^2) v_i pins down the self-intersection
numbers, and everything else (Riemann-Roch, line-bundle cohomology via
lattice points, blow-ups, the numerical Grothendieck group and its Euler
pairing) is derived from the fan by exact integer arithmetic.

Divisors are integer coefficient tuples indexed by rays. Picard-basis
coordinates refer to the first rho = #rays - 2 rays; the remaining two
rays always form a lattice basis, so that choice never degenerates.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cmp_to_key
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .linalg import FrozenValue, _as_int, _as_ints


class FanError(ValueError):
    """The ray data does not describe a smooth complete fan."""


class ConsistencyError(RuntimeError):
    """An exact identity failed; this signals a bug, not bad input."""


class CohDims(NamedTuple):
    """Sheaf cohomology dimensions (h0, h1, h2) of a line bundle."""

    h0: int
    h1: int
    h2: int


class KClass(FrozenValue):
    """Class in the numerical Grothendieck group: rank, first Chern class
    and twice the degree-2 Chern character, all ints."""

    __slots__ = ("rank", "c1", "twice_ch2")

    def __init__(self, rank: int, c1: tuple, twice_ch2: int):
        self._init(_as_int(rank, "rank"), _as_ints(c1, "c1 coefficient"), _as_int(twice_ch2, "twice_ch2"))

    def __sub__(self, other: "KClass") -> "KClass":
        if len(self.c1) != len(other.c1):
            raise ValueError(
                f"cannot subtract a class with {len(other.c1)} c1 coefficients "
                f"from one with {len(self.c1)}"
            )
        return KClass(
            self.rank - other.rank,
            sub_divisors(self.c1, other.c1),
            self.twice_ch2 - other.twice_ch2,
        )

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and self.twice_ch2 == 0 and all(c == 0 for c in self.c1)


def _cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _angle_half(v) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi)
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _angle_cmp(a, b) -> int:
    ha, hb = _angle_half(a), _angle_half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = _cross(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def p1_cohomology(d: int) -> tuple:
    """(h0, h1) of O(d) on the projective line."""
    d = _as_int(d, "P1 degree")
    return (max(0, d + 1), max(0, -d - 1))


def add_divisors(d: Sequence[int], e: Sequence[int]) -> tuple:
    return tuple([a + b for a, b in zip(d, e)])


def sub_divisors(d: Sequence[int], e: Sequence[int]) -> tuple:
    return tuple([a - b for a, b in zip(d, e)])


def neg_divisor(d: Sequence[int]) -> tuple:
    return tuple([-a for a in d])


class ToricSurface:
    """Smooth complete toric surface built from a list of primitive rays."""

    def __init__(self, rays: Iterable[Sequence[int]]):
        rays = [_as_ints(r, "ray coordinate") for r in rays]
        if len(rays) < 3:
            raise FanError("a complete fan needs at least 3 rays")
        for r in rays:
            if len(r) != 2:
                raise FanError(f"ray {r} is not a lattice vector in Z^2")
            if math.gcd(*r) != 1:  # gcd(0, 0) is 0
                raise FanError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise FanError("duplicate rays")
        rays.sort(key=cmp_to_key(_angle_cmp))
        n = len(rays)
        for i in range(n):
            v, w = rays[i], rays[(i + 1) % n]
            det = _cross(v, w)
            if det != 1:
                raise FanError(
                    f"adjacent rays {v} and {w} have determinant {det}; "
                    "a smooth complete fan requires +1 for every consecutive pair"
                )
        self.rays: tuple = tuple(rays)
        selfints = []
        for i in range(n):
            prev_plus_next = add_divisors(rays[i - 1], rays[(i + 1) % n])
            p = _cross(rays[i - 1], rays[(i + 1) % n])
            if prev_plus_next != (p * rays[i][0], p * rays[i][1]):
                raise ConsistencyError(f"wall relation failed at ray {rays[i]}")
            selfints.append(-p)
        self.self_intersections: tuple = tuple(selfints)
        self._coh_cache: dict = {}  # checked divisor -> CohDims
        # ray inequalities h0_lattice_points may still test; None is no limit
        self._lattice_budget: Optional[int] = None
        self._pair_levels: dict = {}  # bound -> (levels, values), filled by _strong_pairs
        # canonical divisor -sum(D_i)
        self.canonical: tuple = (-1,) * n
        self._k_squared = self.intersect(self.canonical, self.canonical)
        if self._k_squared + n != 12:
            raise ConsistencyError("Noether identity K^2 + #rays = 12 failed")

    # --- basic invariants ---------------------------------------------------

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @property
    def picard_rank(self) -> int:
        return len(self.rays) - 2

    def zero_divisor(self) -> tuple:
        return (0,) * len(self.rays)

    def ray_divisor(self, i: int) -> tuple:
        i = self._ray(i)
        return tuple([int(j == i) for j in range(len(self.rays))])

    def _ray(self, i: int) -> int:
        return _as_int(i, "ray", 0, len(self.rays) - 1)

    def _check_divisor(self, d: Sequence[int]) -> tuple:
        """d as a tuple of ints of the fan's length: the one conversion at
        every public entry point; private paths take its result as is."""
        return self._check_length(_as_ints(d, "divisor coefficient"))

    def _check_length(self, d: tuple) -> tuple:
        if len(d) != len(self.rays):
            raise ValueError(
                f"divisor has {len(d)} coefficients but the fan has {len(self.rays)} rays"
            )
        return d

    # --- Picard coordinates ---------------------------------------------------

    def lift_pic(self, coeffs: Sequence[int]) -> tuple:
        """Divisor with the given coefficients on the Picard basis rays,
        zero on the remaining rays."""
        coeffs = _as_ints(coeffs, "Picard coordinate")
        if len(coeffs) != self.picard_rank:
            raise ValueError(
                f"expected {self.picard_rank} Picard coordinates, got {len(coeffs)}"
            )
        return self._lift(coeffs)

    def _lift(self, v: tuple) -> tuple:
        """A Picard vector of ints as a checked divisor: 0 on the last two rays."""
        return v + (0, 0)

    # --- intersection theory --------------------------------------------------

    def _ray_products(self, d: tuple) -> list:
        """The products D.D_i of a checked divisor with every ray divisor:
        d_{i-1} + d_i D_i^2 + d_{i+1}, from the table D_i.D_j."""
        prev, nxt = d[-1:] + d[:-1], d[1:] + d[:1]
        return [a + b * s + c for a, b, s, c in zip(prev, d, self.self_intersections, nxt)]

    def _dot(self, d: tuple, e: tuple) -> int:
        """D.E for checked divisors."""
        return sum(a * p for a, p in zip(d, self._ray_products(e)))

    def intersect(self, d: Sequence[int], e: Sequence[int]) -> int:
        """Intersection number, bilinear in the table D_i.D_j."""
        return self._dot(self._check_divisor(d), self._check_divisor(e))

    def k_squared(self) -> int:
        return self._k_squared

    def rr_chi(self, d: Sequence[int]) -> int:
        """Euler characteristic by Riemann-Roch: 1 + (D^2 - K.D)/2."""
        return self._chi(self._check_divisor(d))

    def _chi(self, d: tuple) -> int:
        # D^2 - K.D = sum (d_i + 1) p_i with p_i = D.D_i, since K = -sum D_i
        num = sum((a + 1) * p for a, p in zip(d, self._ray_products(d)))
        if num % 2 != 0:
            raise ConsistencyError(f"Riemann-Roch parity failed for divisor {d}")
        return 1 + num // 2

    # --- cohomology -------------------------------------------------------------

    def _section_box(self, d: tuple) -> tuple:
        """(x range, y range) of the integer bounding box that holds every
        lattice point of the section polytope {m : <m, v_i> >= -d_i} of a
        checked divisor; both ranges are empty when it has no sections.

        Adjacent rays v_i = (a, b), v_{i+1} = (c, e) have determinant +1, so
        their boundary lines meet in the integer cone vertex
        m_i = (b d_{i+1} - e d_i, c d_i - a d_{i+1}). For u in the cone of
        v_i and v_{i+1}, every m in the polytope has <m, u> >= <m_i, u>; the
        cones cover the plane, so the polytope lies in the convex hull of the
        m_i and enumerating their bounding box is exhaustive.
        """
        if max(d) <= 0 and min(d) < 0:
            # The rays satisfy a relation sum c_i v_i = 0 with every c_i > 0,
            # so <m, v_i> >= -d_i >= 0, strictly for some i, has no solution.
            return range(0), range(0)
        rays = self.rays
        xs, ys = [], []
        for (a, b), (c, e), di, dj in zip(rays, rays[1:] + rays[:1], d, d[1:] + d[:1]):
            xs.append(b * dj - e * di)
            ys.append(c * di - a * dj)
        return range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1)

    def h0_lattice_points(self, d: Sequence[int]) -> int:
        """Global sections = lattice points of {m : <m, v_i> >= -d_i for all
        i}, counted over the box of _section_box. Along a column x, ray
        (a_i, b_i) admits y when b_i y >= t_i = -d_i - a_i x, so each
        threshold is computed once per column.

        A surface with a lattice budget spends box points times rays of it
        here; a count that would overdraw it raises ValueError before it
        tests a point, and spends nothing. A box side is stop - start:
        len() of a range longer than sys.maxsize raises OverflowError."""
        d = self._check_divisor(d)
        xs, ys = self._section_box(d)
        if self._lattice_budget is not None:
            tests = len(self.rays) * (xs.stop - xs.start) * (ys.stop - ys.start)
            if tests > self._lattice_budget:
                raise ValueError(
                    f"a lattice count would test {tests} ray inequalities, but only "
                    f"{self._lattice_budget} remain of the lattice budget"
                )
            self._lattice_budget -= tests
        terms = [(a, b, -di) for (a, b), di in zip(self.rays, d)]
        count = 0
        for x in xs:
            thresholds = [(b, t - a * x) for a, b, t in terms]
            for y in ys:
                if all(b * y >= t for b, t in thresholds):
                    count += 1
        return count

    def cohomology(self, d: Sequence[int]) -> CohDims:
        """Cohomology of O(D): h0 and h2 by lattice counts (h2 via duality
        against K - D), h1 forced by Riemann-Roch. Memoised per surface."""
        return self._coh(self._check_divisor(d))

    def _coh(self, d: tuple) -> CohDims:
        """Cohomology of a checked divisor, through the per-surface cache."""
        coh = self._coh_cache.get(d)
        if coh is None:
            coh = self._coh_cache[d] = self._count_coh(d)
        return coh

    def _count_coh(self, d: tuple) -> CohDims:
        """Cohomology of a checked divisor by two lattice counts, uncached."""
        h0 = self.h0_lattice_points(d)
        h2 = self.h0_lattice_points(tuple([-1 - c for c in d]))  # K - D
        h1 = h0 + h2 - self._chi(d)
        if h1 < 0:
            raise ConsistencyError(f"negative h1 for divisor {d}")
        return CohDims(h0, h1, h2)

    # --- strong exceptional pairs of line bundles -------------------------------

    def _pair_hom(self, d: tuple) -> Optional[int]:
        """pair_hom of a checked divisor: n when O(D) has cohomology (n, 0, 0)
        and O(-D) has none, so that (O, O(D)) is a strong exceptional pair."""
        h0, h1, h2 = self._coh(d)
        return None if h1 or h2 or any(self._coh(neg_divisor(d))) else h0

    def _picard_box(self, bound: int):
        """[-bound, bound]^rho as Picard vectors, in lexicographic order."""
        return itertools.product(range(-bound, bound + 1), repeat=self.picard_rank)

    def _strong_pairs(self, bound: int) -> tuple:
        """(levels, hom) for the Picard box: levels maps n to the level set
        L(n) = {v : pair_hom(v) = n}, a tuple in box order, and hom is
        pair_hom of a Picard vector, read from the box's values inside it.
        Levels and values are built once per bound and kept; hom is built per
        call, so the surface holds no closure over itself. Each box vector
        is counted once, uncached, so no box point enters the cache; 0 fails
        the rule (O(-0) has sections)."""
        memo = self._pair_levels.get(bound)
        if memo is None:
            coh = {v: self._count_coh(self._lift(v)) for v in self._picard_box(bound)}
            values = {v: c.h0 for v, c in coh.items() if not (c.h1 or c.h2 or any(coh[neg_divisor(v)]))}
            levels: dict = {}
            for v, n in values.items():
                levels.setdefault(n, []).append(v)
            memo = self._pair_levels[bound] = ({n: tuple(vs) for n, vs in levels.items()}, values)
        levels, values = memo

        def hom(v: tuple) -> Optional[int]:
            # a vector of the box missing from values has no strong pair
            if -bound <= min(v) and max(v) <= bound:
                return values.get(v)
            return self._pair_hom(self._lift(v))

        return levels, hom

    # --- blow-ups ------------------------------------------------------------

    def blow_up(self, wall: int) -> "ToricSurface":
        """Blow up the torus-fixed point of the cone spanned by rays
        wall and wall+1 (cyclically): insert their sum as a new ray. The
        wall is an index in range(n_rays); it does not wrap round."""
        n = len(self.rays)
        i = _as_int(wall, "wall", 0, n - 1)
        v = add_divisors(self.rays[i], self.rays[(i + 1) % n])
        return ToricSurface(self.rays + (v,))

    # --- K-theory classes -------------------------------------------------------

    def kclass_line(self, d: Sequence[int]) -> KClass:
        d = self._check_divisor(d)
        return KClass(1, d, self._dot(d, d))

    def kclass_curve(self, c: Sequence[int]) -> KClass:
        """Class of the structure sheaf of an effective invariant curve,
        from the ideal-sheaf presentation of O_C."""
        c = self._check_divisor(c)
        if all(x == 0 for x in c) or any(x < 0 for x in c):
            raise ValueError("curve class must be a nonzero effective divisor")
        return KClass(0, c, -self._dot(c, c))

    def kclass_point(self) -> KClass:
        return KClass(0, self.zero_divisor(), 2)

    def _class_data(self, x: KClass) -> tuple:
        """(rank, c1, the products c1.D_i, -K.c1, twice_ch2): every number of a
        class that an Euler-form entry reads. KClass.c1 is already a tuple
        of ints; only its length can be wrong."""
        c1 = self._check_length(x.c1)
        products = self._ray_products(c1)
        return x.rank, c1, products, sum(products), x.twice_ch2

    def euler_form(self, xs: Sequence[KClass], ys: Sequence[KClass]) -> list:
        """The Euler pairings [[chi(x, y) for y in ys] for x in xs], by
        Riemann-Roch on classes:

        chi(x, y) = r_x ch2_y + r_y ch2_x - c1_x.c1_y
                    - (K/2).(r_x c1_y - r_y c1_x) + r_x r_y.

        The data of each class is computed once; each entry is then twice
        the pairing in integers, with one dot product c1_x.c1_y.
        """
        xd = [self._class_data(x) for x in xs]
        yd = [self._class_data(y) for y in ys]
        rows = []
        for rx, cx, _, kx, tx in xd:
            row = []
            for ry, _, py, ky, ty in yd:
                twice = rx * (ty + ky) + ry * (tx - kx) + 2 * (rx * ry - sum(map(mul, cx, py)))
                if twice % 2 != 0:
                    raise ConsistencyError(f"non-integral Euler pairing {twice}/2")
                row.append(twice // 2)
            rows.append(row)
        return rows

    def euler_pairing(self, x: KClass, y: KClass) -> int:
        """Euler pairing chi(x, y): the 1x1 case of euler_form."""
        return self.euler_form((x,), (y,))[0][0]

    def serre_twist(self, x: KClass) -> KClass:
        """Twist by the canonical bundle; the shift acts trivially on classes."""
        c1 = self._check_length(x.c1)
        shift_c1, shift_twice_ch2 = self._twist_shift(x.rank, c1)
        return KClass(x.rank, add_divisors(c1, shift_c1), x.twice_ch2 + shift_twice_ch2)

    def _twist_shift(self, rank: int, c1: tuple) -> tuple:
        """(c1, 2 ch2) of S x - x for a class x of the given rank and checked
        c1, where S twists by K = -sum D_i: rank K and 2 c1.K + rank K^2.
        S x - x has rank 0 and does not depend on ch2."""
        return (-rank,) * len(c1), rank * self._k_squared - 2 * sum(self._ray_products(c1))

    def knum_basis(self) -> tuple:
        """Ordered basis of the numerical Grothendieck group:
        point class, the rho Picard-basis curve sheaves, structure sheaf."""
        classes = [self.kclass_point()]
        classes += [self.kclass_curve(self.ray_divisor(i)) for i in range(self.picard_rank)]
        classes.append(self.kclass_line(self.zero_divisor()))
        return tuple(classes)

    def knum_gram(self) -> list:
        """(rho+2)-square Euler-pairing Gram matrix in the knum basis, as
        rows of ints."""
        basis = self.knum_basis()
        return self.euler_form(basis, basis)

    # --- Ext dimensions for mixed pairs ----------------------------------------

    def ext_line_to_curve(self, a: Sequence[int], ray: int) -> tuple:
        """Ext^*(O(A), O_C) for the invariant curve C of one ray: the
        cohomology of O(-A.C) on that rational curve."""
        a = self._check_divisor(a)
        h0, h1 = p1_cohomology(-self._ray_products(a)[self._ray(ray)])
        return (h0, h1, 0)

    def ext_curve_to_line(self, ray: int, a: Sequence[int]) -> tuple:
        """Ext^*(O_C, O(A)) by Serre duality on the surface: Ext^k(O_C, O(A))
        is dual to Ext^(2-k)(O(A - K), O_C)."""
        return self.ext_line_to_curve(sub_divisors(self._check_divisor(a), self.canonical), ray)[::-1]

    def ext_curve_pair(self, ray_i: int, ray_j: int) -> tuple:
        """Ext^*(O_C, O_C') for invariant ray curves.

        For C = C' the ideal-sheaf resolution gives a long exact sequence
        whose connecting maps vanish (they are multiplication by the
        defining section, which is zero on C), leaving
        (1, h0(O_C(C)), h1(O_C(C))). Distinct adjacent curves meet
        transversally in one point p: the only nonzero Ext sheaf is
        Ext^1(O_C, O_C') = O_p, giving (0, 1, 0). Other pairs are disjoint.
        """
        n, ray_i, ray_j = len(self.rays), self._ray(ray_i), self._ray(ray_j)
        if ray_i == ray_j:
            return (1,) + p1_cohomology(self.self_intersections[ray_i])
        if (ray_j - ray_i) % n in (1, n - 1):
            return (0, 1, 0)
        return (0, 0, 0)

    # --- misc -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ToricSurface) and self.rays == other.rays

    def __hash__(self) -> int:
        return hash(self.rays)

    def __repr__(self) -> str:
        return f"ToricSurface(rays={list(self.rays)})"


# --- presets -----------------------------------------------------------------


def projective_plane() -> ToricSurface:
    return ToricSurface([(1, 0), (0, 1), (-1, -1)])


def p1xp1() -> ToricSurface:
    return ToricSurface([(1, 0), (0, 1), (-1, 0), (0, -1)])


def hirzebruch(n: int) -> ToricSurface:
    """The ruled surface F_n; F_0 is the quadric P1 x P1."""
    return ToricSurface([(1, 0), (0, 1), (-1, _as_int(n, "Hirzebruch index", 0)), (0, -1)])


def blowup_p2(k: int) -> ToricSurface:
    """P^2 blown up in k torus-fixed points, 1 <= k <= 3, with the standard
    fans; blow_up reaches further."""
    fans = {
        1: [(1, 0), (1, 1), (0, 1), (-1, -1)],
        2: [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)],
        3: [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    }
    return ToricSurface(fans[_as_int(k, "blowup_p2 point count", 1, 3)])


PRESETS = {
    "P2": projective_plane,
    "P1xP1": p1xp1,
    "F0": p1xp1,
    "F1": lambda: hirzebruch(1),
    "F2": lambda: hirzebruch(2),
    "F3": lambda: hirzebruch(3),
    "Bl1P2": lambda: blowup_p2(1),
    "Bl2P2": lambda: blowup_p2(2),
    "Bl3P2": lambda: blowup_p2(3),
    "dP6": lambda: blowup_p2(3),
}


def preset(name: str) -> ToricSurface:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown surface preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def random_blowup_surface(rng: random.Random) -> ToricSurface:
    """Random iterated toric blow-up of P2, P1 x P1 or F2, with 0 to 6 blow-ups."""
    s = preset(rng.choice(("P2", "P1xP1", "F2")))
    for _ in range(rng.randint(0, 6)):
        s = s.blow_up(rng.randrange(s.n_rays))
    return s

