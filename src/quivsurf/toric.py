"""Smooth complete toric surfaces with exact intersection theory.

A surface is an ordered cycle of primitive lattice rays in Z^2, sorted
counterclockwise; every adjacent pair must span a basis of the lattice
(determinant +1), which is exactly smoothness plus completeness. The wall
relation v_{i-1} + v_{i+1} = -(D_i^2) v_i pins down the self-intersection
numbers, and everything else (Riemann-Roch, line-bundle cohomology via
lattice points, blow-ups, the numerical Grothendieck group and its Euler
pairing) is derived from the fan by exact integer/rational arithmetic.

Divisors are integer coefficient tuples indexed by rays. Picard-basis
coordinates refer to the first rho = #rays - 2 rays; the remaining two
rays always form a lattice basis, so that choice never degenerates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, NamedTuple, Sequence

from .linalg import ExactMatrix


class FanError(ValueError):
    """The ray data does not describe a smooth complete fan."""


class ConsistencyError(RuntimeError):
    """An exact identity failed; this signals a bug, not bad input."""


class UnsupportedExtError(ValueError):
    """Ext computation requested outside the supported cases."""


class CohDims(NamedTuple):
    """Sheaf cohomology dimensions (h0, h1, h2) of a line bundle."""

    h0: int
    h1: int
    h2: int


@dataclass(frozen=True)
class KClass:
    """Class in the numerical Grothendieck group: rank, first Chern class,
    and half of the degree-2 Chern character (an integer or half-integer)."""

    rank: int
    c1: tuple
    ch2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c1", tuple(int(c) for c in self.c1))
        ch2 = Fraction(self.ch2)
        if ch2.denominator not in (1, 2):
            raise ValueError("ch2 must be an integer or half-integer")
        object.__setattr__(self, "ch2", ch2)

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(
            self.rank + other.rank,
            tuple(a + b for a, b in zip(self.c1, other.c1)),
            self.ch2 + other.ch2,
        )

    def __sub__(self, other: "KClass") -> "KClass":
        return KClass(
            self.rank - other.rank,
            tuple(a - b for a, b in zip(self.c1, other.c1)),
            self.ch2 - other.ch2,
        )

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and self.ch2 == 0 and all(c == 0 for c in self.c1)


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


def _twice(ch2: Fraction) -> int:
    """2 * ch2 for an integer or half-integer ch2."""
    return ch2.numerator * 2 // ch2.denominator


def p1_cohomology(d: int) -> tuple:
    """(h0, h1) of O(d) on the projective line."""
    return (max(0, d + 1), max(0, -d - 1))


def add_divisors(d: Sequence[int], e: Sequence[int]) -> tuple:
    return tuple(a + b for a, b in zip(d, e))


def sub_divisors(d: Sequence[int], e: Sequence[int]) -> tuple:
    return tuple(a - b for a, b in zip(d, e))


def neg_divisor(d: Sequence[int]) -> tuple:
    return tuple(-a for a in d)


class ToricSurface:
    """Smooth complete toric surface built from a list of primitive rays."""

    def __init__(self, rays: Iterable[Sequence[int]]):
        rays = [tuple(int(c) for c in r) for r in rays]
        if len(rays) < 3:
            raise FanError("a complete fan needs at least 3 rays")
        for r in rays:
            if len(r) != 2:
                raise FanError(f"ray {r} is not a lattice vector in Z^2")
            if r == (0, 0) or math.gcd(abs(r[0]), abs(r[1])) != 1:
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
        return tuple(0 for _ in self.rays)

    def ray_divisor(self, i: int) -> tuple:
        return tuple(1 if j == i else 0 for j in range(len(self.rays)))

    def _check_divisor(self, d: Sequence[int]) -> tuple:
        d = tuple(int(c) for c in d)
        if len(d) != len(self.rays):
            raise ValueError(
                f"divisor has {len(d)} coefficients but the fan has {len(self.rays)} rays"
            )
        return d

    # --- Picard coordinates ---------------------------------------------------

    def lift_pic(self, coeffs: Sequence[int]) -> tuple:
        """Divisor with the given coefficients on the Picard basis rays,
        zero on the remaining rays."""
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.picard_rank:
            raise ValueError(
                f"expected {self.picard_rank} Picard coordinates, got {len(coeffs)}"
            )
        return coeffs + (0,) * (len(self.rays) - len(coeffs))

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

    def h0_lattice_points(self, d: Sequence[int]) -> int:
        """Global sections = lattice points of {m : <m, v_i> >= -d_i for all i}.

        Adjacent rays v_i = (a, b), v_{i+1} = (c, e) have determinant +1, so
        their boundary lines meet in the integer cone vertex
        m_i = (b d_{i+1} - e d_i, c d_i - a d_{i+1}). For u in the cone of
        v_i and v_{i+1}, every m in the polytope has <m, u> >= <m_i, u>; the
        cones cover the plane, so the polytope lies in the convex hull of the
        m_i and enumerating their bounding box is exhaustive.
        """
        d = self._check_divisor(d)
        if max(d) <= 0 and min(d) < 0:
            # The rays satisfy a relation sum c_i v_i = 0 with every c_i > 0,
            # so <m, v_i> >= -d_i >= 0, strictly for some i, has no solution.
            return 0
        rays = self.rays
        xs, ys = [], []
        for (a, b), (c, e), di, dj in zip(rays, rays[1:] + rays[:1], d, d[1:] + d[:1]):
            xs.append(b * dj - e * di)
            ys.append(c * di - a * dj)
        count = 0
        for x in range(min(xs), max(xs) + 1):
            for y in range(min(ys), max(ys) + 1):
                if all(x * v[0] + y * v[1] >= -di for v, di in zip(rays, d)):
                    count += 1
        return count

    def cohomology(self, d: Sequence[int]) -> CohDims:
        """Cohomology of O(D): h0 and h2 by lattice counts (h2 via duality
        against K - D), h1 forced by Riemann-Roch. Memoised per surface."""
        d = self._check_divisor(d)
        cached = self._coh_cache.get(d)
        if cached is not None:
            return cached
        h0 = self.h0_lattice_points(d)
        h2 = self.h0_lattice_points(tuple(-1 - c for c in d))  # K - D
        h1 = h0 + h2 - self._chi(d)
        if h1 < 0:
            raise ConsistencyError(f"negative h1 for divisor {d}")
        coh = self._coh_cache[d] = CohDims(h0, h1, h2)
        return coh

    # --- blow-ups ------------------------------------------------------------

    def blow_up(self, wall: int) -> "ToricSurface":
        """Blow up the torus-fixed point of the cone spanned by rays
        wall and wall+1 (cyclically): insert their sum as a new ray."""
        n = len(self.rays)
        i = wall % n
        v = add_divisors(self.rays[i], self.rays[(i + 1) % n])
        return ToricSurface(self.rays + (v,))

    # --- K-theory classes -------------------------------------------------------

    def kclass_line(self, d: Sequence[int]) -> KClass:
        d = self._check_divisor(d)
        return KClass(1, d, Fraction(self.intersect(d, d), 2))

    def kclass_curve(self, c: Sequence[int]) -> KClass:
        """Class of the structure sheaf of an effective invariant curve,
        from the ideal-sheaf presentation of O_C."""
        c = self._check_divisor(c)
        if all(x == 0 for x in c) or any(x < 0 for x in c):
            raise ValueError("curve class must be a nonzero effective divisor")
        return KClass(0, c, -Fraction(self.intersect(c, c), 2))

    def kclass_point(self) -> KClass:
        return KClass(0, self.zero_divisor(), Fraction(1))

    def euler_pairing(self, x: KClass, y: KClass) -> int:
        """Euler pairing via Riemann-Roch on classes.

        chi(x, y) = r_x ch2_y + r_y ch2_x - c1_x.c1_y
                    - (K/2).(r_x c1_y - r_y c1_x) + r_x r_y.
        """
        cx, cy = self._check_divisor(x.c1), self._check_divisor(y.c1)
        mixed = tuple(x.rank * b - y.rank * a for a, b in zip(cx, cy))
        # twice the pairing, in integers; -K.mixed is the sum of mixed.D_i
        twice = (
            x.rank * _twice(y.ch2)
            + y.rank * _twice(x.ch2)
            - 2 * self._dot(cx, cy)
            + sum(self._ray_products(mixed))
            + 2 * x.rank * y.rank
        )
        if twice % 2 != 0:
            raise ConsistencyError(f"non-integral Euler pairing {twice}/2")
        return twice // 2

    def serre_twist(self, x: KClass) -> KClass:
        """Twist by the canonical bundle; the shift acts trivially on classes."""
        k = self.canonical
        return KClass(
            x.rank,
            tuple(c + x.rank * kc for c, kc in zip(x.c1, k)),
            x.ch2 + self.intersect(x.c1, k) + Fraction(x.rank * self._k_squared, 2),
        )

    def knum_basis(self) -> tuple:
        """Ordered basis of the numerical Grothendieck group:
        point class, the rho Picard-basis curve sheaves, structure sheaf."""
        classes = [self.kclass_point()]
        classes += [self.kclass_curve(self.ray_divisor(i)) for i in range(self.picard_rank)]
        classes.append(self.kclass_line(self.zero_divisor()))
        return tuple(classes)

    def knum_gram(self) -> ExactMatrix:
        """(rho+2)-square Euler-pairing Gram matrix in the knum basis."""
        basis = self.knum_basis()
        return ExactMatrix.from_rows(
            [[self.euler_pairing(x, y) for y in basis] for x in basis]
        )

    # --- Ext dimensions for mixed pairs ----------------------------------------

    def ext_line_to_curve(self, a: Sequence[int], ray: int) -> tuple:
        """Ext^*(O(A), O_C) for the invariant curve C of one ray: the
        cohomology of O(-A.C) on that rational curve."""
        a = self._check_divisor(a)
        h0, h1 = p1_cohomology(-self.intersect(a, self.ray_divisor(ray)))
        return (h0, h1, 0)

    def ext_curve_to_line(self, ray: int, a: Sequence[int]) -> tuple:
        """Ext^*(O_C, O(A)) by Serre duality on the surface: the dual of
        H^(2-*) of O((K-A).C) on the curve."""
        a = self._check_divisor(a)
        h0, h1 = p1_cohomology(
            self.intersect(sub_divisors(self.canonical, a), self.ray_divisor(ray))
        )
        return (0, h1, h0)

    def ext_curve_pair(self, ray_i: int, ray_j: int) -> tuple:
        """Ext^*(O_C, O_C') for invariant ray curves, supported when the
        curves are equal or disjoint.

        For C = C' the ideal-sheaf resolution gives a long exact sequence
        whose connecting maps vanish (they are multiplication by the
        defining section, which is zero on C), leaving
        (1, h0(O_C(C)), h1(O_C(C))).
        """
        n = len(self.rays)
        if ray_i == ray_j:
            return (1,) + p1_cohomology(self.self_intersections[ray_i])
        if (ray_j - ray_i) % n in (1, n - 1):
            raise UnsupportedExtError(
                f"invariant curves of rays {ray_i} and {ray_j} intersect; "
                "only equal or disjoint curve pairs are supported"
            )
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
    if n < 0:
        raise ValueError("Hirzebruch index must be nonnegative")
    return ToricSurface([(1, 0), (0, 1), (-1, n), (0, -1)])


def blowup_p2(k: int) -> ToricSurface:
    """P^2 blown up in k torus-fixed points, k <= 3, with the standard fans."""
    fans = {
        1: [(1, 0), (1, 1), (0, 1), (-1, -1)],
        2: [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)],
        3: [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    }
    if k not in fans:
        raise ValueError("blowup_p2 supports k in {1,2,3}; use blow_up for more")
    return ToricSurface(fans[k])


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

