"""Strong exceptional collections on toric surfaces: verification and search.

Objects are line bundles O(D) or structure sheaves O_C of single invariant
curves. All checks are at the level of Ext dimensions, exactly what the
numerical machinery provides: a collection is exceptional when every object
has endomorphisms (1,0,0) and all backward Ext triples vanish, and strong
when in addition the forward triples are concentrated in degree 0. Whether
the dimension-level match with a path algebra lifts to an algebra
isomorphism (absence of relations) is not decided here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .toric import (
    ToricSurface,
    add_divisors,
    blowup_p2,
    neg_divisor,
    projective_plane,
    sub_divisors,
)


@dataclass(frozen=True)
class LineBundle:
    divisor: tuple

    def __post_init__(self):
        object.__setattr__(self, "divisor", tuple(int(c) for c in self.divisor))


@dataclass(frozen=True)
class CurveSheaf:
    ray: int


CollectionObject = Union[LineBundle, CurveSheaf]


@dataclass(frozen=True)
class Collection:
    """Ordered collection of sheaf objects on one toric surface."""

    surface: ToricSurface
    objects: tuple

    def __post_init__(self):
        if not self.objects:
            raise ValueError("collection must be non-empty")
        for obj in self.objects:
            if isinstance(obj, LineBundle):
                self.surface._check_divisor(obj.divisor)
            elif isinstance(obj, CurveSheaf):
                if not (0 <= obj.ray < self.surface.n_rays):
                    raise ValueError(f"curve ray {obj.ray} out of range")
            else:
                raise ValueError(f"unsupported collection object {obj!r}")

    def __len__(self) -> int:
        return len(self.objects)


def line_collection(surface: ToricSurface, divisors: Sequence[Sequence[int]]) -> Collection:
    return Collection(surface, tuple(LineBundle(tuple(d)) for d in divisors))


def ext_dims(c: Collection, i: int, j: int) -> tuple:
    """Ext^*(E_i, E_j) dimension triple for a pair of collection objects."""
    s = c.surface
    x, y = c.objects[i], c.objects[j]
    if isinstance(x, LineBundle) and isinstance(y, LineBundle):
        return tuple(s.cohomology(sub_divisors(y.divisor, x.divisor)))
    if isinstance(x, LineBundle) and isinstance(y, CurveSheaf):
        return s.ext_line_to_curve(x.divisor, y.ray)
    if isinstance(x, CurveSheaf) and isinstance(y, LineBundle):
        return s.ext_curve_to_line(x.ray, y.divisor)
    return s.ext_curve_pair(x.ray, y.ray)


@dataclass(frozen=True)
class PairFailure:
    i: int
    j: int
    ext: tuple
    reason: str  # "exceptional" | "backward" | "forward"

    def describe(self) -> str:
        what = {
            "exceptional": f"object {self.i} is not exceptional",
            "backward": f"backward Ext({self.j},{self.i}) nonzero",
            "forward": f"forward Ext({self.i},{self.j}) not concentrated in degree 0",
        }[self.reason]
        return f"{what}: dimensions {self.ext}"


@dataclass(frozen=True)
class VerifyResult:
    """Full Hom/Ext dimension table plus the first violation, if any."""

    ok: bool
    strong: bool
    hom: tuple  # hom[i][j] = Ext^*(E_i, E_j) triple
    failure: Optional[PairFailure]

    def forward_hom(self) -> list:
        """Matrix of degree-0 forward dimensions (diagonal included)."""
        n = len(self.hom)
        return [[self.hom[i][j][0] if j >= i else 0 for j in range(n)] for i in range(n)]


def verify_collection(c: Collection, strong: bool = True) -> VerifyResult:
    """Check the (strong) exceptional-collection conditions pair by pair."""
    n = len(c)
    hom = tuple(tuple(ext_dims(c, i, j) for j in range(n)) for i in range(n))
    failure = None
    for i in range(n):
        for j in range(n):
            triple = hom[i][j]
            if i == j and triple != (1, 0, 0):
                failure = PairFailure(i, j, triple, "exceptional")
            elif j < i and triple != (0, 0, 0):
                failure = PairFailure(i, j, triple, "backward")
            elif j > i and strong and triple[1:] != (0, 0):
                failure = PairFailure(i, j, triple, "forward")
            if failure is not None:
                return VerifyResult(False, strong, hom, failure)
    return VerifyResult(True, strong, hom, None)


def abc_of(c: Collection) -> tuple:
    """(a, b, c) of a strong 3-object collection: arrow counts of the
    endomorphism quiver, with c corrected for composite paths."""
    if len(c) != 3:
        raise ValueError("abc is defined for 3-object collections")
    result = verify_collection(c, strong=True)
    if not result.ok:
        raise ValueError(
            f"collection is not strong exceptional ({result.failure.describe()})"
        )
    hom = result.forward_hom()
    a, b = hom[0][1], hom[1][2]
    composite = hom[0][2] - a * b
    if composite < 0:
        raise ValueError(
            f"relations present: hom(0,2)={hom[0][2]} is smaller than a*b={a * b}"
        )
    return (a, b, composite)


def solve_abc(max_value: int) -> list:
    """All triples 0 <= a,b,c <= max_value with a + b = ab + c, in lex order."""
    _check_bound(max_value, "solve-abc maximum")
    solutions = []
    for a in range(max_value + 1):
        for b in range(max_value + 1):
            c = a + b - a * b
            if 0 <= c <= max_value:
                solutions.append((a, b, c))
    return solutions


@dataclass(frozen=True)
class AbcSearchResult:
    triple: tuple
    pairs: tuple  # ((D_pic, E_pic), ...) with the first object normalised to O
    diagnostic: Optional[str]


def _check_bound(bound: int, what: str) -> None:
    if bound < 0:
        raise ValueError(f"{what} must be nonnegative, got {bound}")


def pair_hom(surface: ToricSurface, d: Sequence[int]) -> Optional[int]:
    """n when (O, O(D)) is a strong exceptional pair with n morphisms, that
    is O(D) has cohomology (n, 0, 0) and O(-D) has none; None otherwise.
    D is given in ray coefficients."""
    h0, h1, h2 = surface.cohomology(d)
    if h1 or h2 or surface.cohomology(neg_divisor(d)) != (0, 0, 0):
        return None
    return h0


def search_abc(
    surface: ToricSurface, a: int, b: int, c: int, bound: int = 3
) -> AbcSearchResult:
    """All (D, E) in Picard coordinates with entries in [-bound, bound] such
    that (O, O(D), O(E)) is strong exceptional with quiver data (a, b, c).

    An impossible triple (a + b != ab + c) returns an empty result with a
    diagnostic; for any strong exceptional triple of line bundles the
    identity a + b = ab + c is forced by Riemann-Roch. A negative bound or
    arrow count raises ValueError.
    """
    _check_bound(bound, "search bound")
    if min(a, b, c) < 0:
        raise ValueError(f"arrow counts must be nonnegative, got (a,b,c)=({a},{b},{c})")
    if a + b != a * b + c:
        return AbcSearchResult(
            (a, b, c),
            (),
            f"no strong exceptional triple of line bundles can realise (a,b,c)=({a},{b},{c}): "
            f"a+b={a + b} but ab+c={a * b + c}, and a+b=ab+c is forced",
        )
    box = list(itertools.product(range(-bound, bound + 1), repeat=surface.picard_rank))
    homs = [pair_hom(surface, surface.lift_pic(v)) for v in box]
    d_candidates = [v for v, n in zip(box, homs) if n == a]
    e_candidates = [v for v, n in zip(box, homs) if n == a * b + c]
    pairs = tuple(
        (d, e)
        for d in d_candidates
        for e in e_candidates
        if pair_hom(surface, surface.lift_pic(sub_divisors(e, d))) == b
    )
    return AbcSearchResult((a, b, c), pairs, None)


def search_kronecker(surface: ToricSurface, n: int, bound: int = 5) -> tuple:
    """All D in Picard coordinates with entries in [-bound, bound] such that
    (O, O(D)) is a strong exceptional pair with n forward morphisms, i.e. a
    rank-one realisation of the n-arrow Kronecker quiver."""
    if n < 1:
        raise ValueError("Kronecker search needs n >= 1")
    _check_bound(bound, "search bound")
    return tuple(
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=surface.picard_rank)
        if pair_hom(surface, surface.lift_pic(v)) == n
    )


# --- the star family ---------------------------------------------------------

# Largest star S_n that verify_star_family builds.
STAR_FAMILY_MAX = 6


@dataclass(frozen=True)
class StarFamilyReport:
    """Outcome of realising the n-leaf star quiver by a mixed collection."""

    n: int
    surface: ToricSurface
    exceptional_rays: tuple
    verify: VerifyResult
    dims_ok: bool

    @property
    def ok(self) -> bool:
        return self.verify.ok and self.dims_ok


def star_family_surface(n: int) -> tuple:
    """Iterated toric blow-up of P2 carrying n pairwise disjoint (-1)-curves.

    Preparatory blow-ups widen the fan until n pairwise ray-disjoint walls
    exist; blowing those up (from the highest wall index down, so indices
    stay put) inserts n new rays that stay pairwise non-adjacent with
    self-intersection -1. Returns (surface, ray indices of those curves).
    """
    s = projective_plane()
    for _ in range(max(0, 2 * n - 3)):
        s = s.blow_up(0)
    inserted = []
    for wall in reversed(range(0, 2 * n, 2)):
        inserted.append(add_divisors(s.rays[wall], s.rays[wall + 1]))
        s = s.blow_up(wall)
    rays = tuple(sorted(s.rays.index(v) for v in inserted))
    for i, j in itertools.combinations(rays, 2):
        if s.intersect(s.ray_divisor(i), s.ray_divisor(j)) != 0:
            raise ValueError(
                f"configuration error: exceptional rays {i} and {j} are not disjoint"
            )
    for i in rays:
        if s.self_intersections[i] != -1:
            raise ValueError(f"configuration error: ray {i} is not a (-1)-curve")
    return s, rays


def verify_star_family(n: int) -> StarFamilyReport:
    """Build and verify the collection (O, O_{E_1}, ..., O_{E_n}) whose
    endomorphism quiver is the n-leaf star: one morphism from the structure
    sheaf to each exceptional curve, none between distinct curves."""
    if n < 0:
        raise ValueError("star family needs n >= 0")
    if n > STAR_FAMILY_MAX:
        raise ValueError(f"star family bound exceeded: n={n} > {STAR_FAMILY_MAX}")
    s, rays = star_family_surface(n)
    coll = Collection(
        s, (LineBundle(s.zero_divisor()),) + tuple(CurveSheaf(i) for i in rays)
    )
    result = verify_collection(coll, strong=True)
    dims_ok = result.ok
    if result.ok:
        hub = all(result.hom[0][j] == (1, 0, 0) for j in range(1, n + 1))
        leaves = all(
            result.hom[i][j] == (0, 0, 0)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        )
        dims_ok = hub and leaves
    return StarFamilyReport(n, s, rays, result, dims_ok)


# --- the 3-vertex divisor table ------------------------------------------------

# Parametrised rows (a, b, c | D | E) in Picard coordinates on the
# degree-6 del Pezzo surface, one family per parity class.
TABLE_ROWS = (
    ("(0,2m,2m)", lambda m: (0, 2 * m, 2 * m), lambda m: (0, 1, 0, -1), lambda m: (m - 1, m, 1, 0)),
    ("(0,2m+1,2m+1)", lambda m: (0, 2 * m + 1, 2 * m + 1), lambda m: (1, 0, 0, -1), lambda m: (1, 1, m, m - 1)),
    ("(2m,0,2m)", lambda m: (2 * m, 0, 2 * m), lambda m: (0, 1, m, m - 1), lambda m: (1, 1, m - 1, m - 1)),
    ("(2m+1,0,2m+1)", lambda m: (2 * m + 1, 0, 2 * m + 1), lambda m: (0, 1, m, m), lambda m: (1, 1, m, m - 1)),
    ("(1,2m,1)", lambda m: (1, 2 * m, 1), lambda m: (1, 1, 0, -1), lambda m: (m, m, 1, 0)),
    ("(1,2m+1,1)", lambda m: (1, 2 * m + 1, 1), lambda m: (0, 0, 0, 1), lambda m: (m, m, 1, 1)),
    ("(2m,1,1)", lambda m: (2 * m, 1, 1), lambda m: (m - 1, m, 1, 0), lambda m: (m - 1, m, 1, 1)),
    ("(2m+1,1,1)", lambda m: (2 * m + 1, 1, 1), lambda m: (0, 1, m, m), lambda m: (1, 1, m, m)),
)


@dataclass(frozen=True)
class TableCase:
    row: str
    m: int
    abc: tuple
    d_pic: tuple
    e_pic: tuple
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def check_table_case(
    surface: ToricSurface, abc: tuple, d_pic: Sequence[int], e_pic: Sequence[int]
) -> tuple:
    """The strong exceptional pairs (O, O(X)) with a, b and ab+c morphisms
    for X = D, E-D and E that certify one (a,b,c | D,E) entry: the six
    cohomology facts for D, E-D, E and -D, D-E, -E."""
    a, b, c = abc
    d = surface.lift_pic(d_pic)
    e = surface.lift_pic(e_pic)
    pairs = (("D", "-D", d, a), ("E-D", "D-E", sub_divisors(e, d), b), ("E", "-E", e, a * b + c))
    failures = []
    for label, neg_label, divisor, expected in pairs:
        if pair_hom(surface, divisor) != expected:
            failures.append(
                f"(O, O({label})) is not a strong exceptional pair with {expected} morphisms: "
                f"O({label}) has cohomology {tuple(surface.cohomology(divisor))}, "
                f"O({neg_label}) has {tuple(surface.cohomology(neg_divisor(divisor)))}"
            )
    return tuple(failures)


def verify_divisor_table(m_max: int) -> list:
    """Run every parametrised row of the 3-vertex divisor table for
    m = 1..m_max on the degree-6 del Pezzo surface."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    surface = blowup_p2(3)
    cases = []
    for row, abc_of_m, d_of_m, e_of_m in TABLE_ROWS:
        for m in range(1, m_max + 1):
            abc = abc_of_m(m)
            d_pic, e_pic = tuple(d_of_m(m)), tuple(e_of_m(m))
            failures = check_table_case(surface, abc, d_pic, e_pic)
            cases.append(TableCase(row, m, abc, d_pic, e_pic, failures))
    return cases

