"""Strong exceptional collections on toric surfaces: verification and search.

Objects are line bundles O(D) or structure sheaves O_C of single invariant
curves. All checks are at the level of Ext dimensions, exactly what the
numerical machinery provides: a collection is exceptional when every object
has endomorphisms (1,0,0) and all backward Ext triples vanish, and strong
when in addition the forward triples are concentrated in degree 0. Whether
the dimension-level match with a path algebra lifts to an algebra
isomorphism (absence of relations) is not decided here.

Searches for collections of line bundles (O, O(D_1), ..., O(D_{n-1})) read
the level sets L(m) = {v : pair_hom(v) = m} of the Picard box, which the
surface builds once per bound and keeps (`ToricSurface._strong_pairs`), so
later searches on a surface reuse every pair_hom of the box.
`search_kronecker(s, n)` returns L(n). `search_paths`, given the forward Hom
dimensions, draws each D_k from L(paths[0][k]), answers a non-additive
matrix without a build, and has `search_abc` as its 3-object case.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

from .linalg import FrozenValue, _as_int, _as_ints, _square_ints
from .quivers import paths_matrix, star
from .toric import (
    ConsistencyError,
    ToricSurface,
    add_divisors,
    blowup_p2,
    neg_divisor,
    projective_plane,
    sub_divisors,
)


class LineBundle(FrozenValue):
    __slots__ = ("divisor",)

    def __init__(self, divisor: tuple):
        self._init(_as_ints(divisor, "divisor coefficient"))


class CurveSheaf(NamedTuple):
    ray: int


class Collection(FrozenValue):
    """Ordered collection of sheaf objects on one toric surface."""

    __slots__ = ("surface", "objects")

    def __init__(self, surface: ToricSurface, objects: tuple):
        if not objects:
            raise ValueError("collection must be non-empty")
        for obj in objects:
            if isinstance(obj, LineBundle):
                surface._check_length(obj.divisor)
            elif isinstance(obj, CurveSheaf):
                _as_int(obj.ray, "curve ray", 0, surface.n_rays - 1)
            else:
                raise ValueError(f"unsupported collection object {obj!r}")
        self._init(surface, objects)

    def __len__(self) -> int:
        return len(self.objects)


def line_collection(surface: ToricSurface, divisors: Sequence[Sequence[int]]) -> Collection:
    return Collection(surface, tuple(LineBundle(d) for d in divisors))


def ext_dims(c: Collection, i: int, j: int) -> tuple:
    """Ext^*(E_i, E_j) dimension triple for a pair of collection objects."""
    s, last = c.surface, len(c) - 1
    x, y = c.objects[_as_int(i, "object", 0, last)], c.objects[_as_int(j, "object", 0, last)]
    if isinstance(x, LineBundle) and isinstance(y, LineBundle):
        return tuple(s._coh(sub_divisors(y.divisor, x.divisor)))
    if isinstance(x, LineBundle) and isinstance(y, CurveSheaf):
        return s.ext_line_to_curve(x.divisor, y.ray)
    if isinstance(x, CurveSheaf) and isinstance(y, LineBundle):
        return s.ext_curve_to_line(x.ray, y.divisor)
    return s.ext_curve_pair(x.ray, y.ray)


def _ext_lattice_tests(c: Collection) -> int:
    """The most ray inequalities that ext_dims tests over the table of c: the
    cache counts each difference E - D of two line bundles once, curves none."""
    lines = [obj.divisor for obj in c.objects if isinstance(obj, LineBundle)]
    return sum(map(c.surface._coh_lattice_tests, {sub_divisors(e, d) for d in lines for e in lines}))


class PairFailure(NamedTuple):
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


class VerifyResult(NamedTuple):
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
    return _abc(verify_collection(c, strong=True))


def _abc(result: VerifyResult) -> tuple:
    """abc_of read from the strong verification of a 3-object collection."""
    if not result.ok:
        raise ValueError(f"collection is not strong exceptional ({result.failure.describe()})")
    hom = result.forward_hom()
    a, b = hom[0][1], hom[1][2]
    composite = hom[0][2] - a * b
    if composite < 0:
        raise ValueError(f"relations present: hom(0,2)={hom[0][2]} is smaller than a*b={a * b}")
    return (a, b, composite)


def solve_abc(max_value: int) -> list:
    """All triples 0 <= a,b,c <= max_value with a + b = ab + c, in lex order."""
    max_value = _as_int(max_value, "solve-abc maximum", 0)
    # c = 1 - (a-1)(b-1) >= 0 allows any b for a <= 1, and for a >= 2 only
    # b <= 1 (and b = 2 when a = 2); each such c lies in [0, max_value].
    return [
        (a, b, a + b - a * b)
        for a in range(max_value + 1)
        for b in (range(max_value + 1) if a < 2 else (0, 1, 2) if a == 2 else (0, 1))
    ]


class AbcSearchResult(NamedTuple):
    triple: tuple
    pairs: tuple  # ((D_pic, E_pic), ...) with the first object normalised to O
    diagnostic: Optional[str]


def pair_hom(surface: ToricSurface, d: Sequence[int]) -> Optional[int]:
    """n when (O, O(D)) is a strong exceptional pair with n morphisms, that
    is O(D) has cohomology (n, 0, 0) and O(-D) has none; None otherwise.
    D is given in ray coefficients, and checked once for both lookups."""
    return surface._pair_hom(surface._check_divisor(d))


def _check_paths(paths: Sequence[Sequence[int]]) -> list:
    """paths as rows of ints: square, 1 on the diagonal, 0 below it and
    nonnegative above it."""
    rows = _square_ints(paths, "paths")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            _as_int(x, f"paths[{i}][{j}]", int(j == i), None if j > i else int(j == i))
    return rows


def search_paths(surface: ToricSurface, paths: Sequence[Sequence[int]], bound: int = 3) -> tuple:
    """All (D_1, ..., D_{n-1}) in Picard coordinates with entries in
    [-bound, bound] such that, with D_0 = 0, every (O(D_i), O(D_j)) with
    i < j is a strong exceptional pair with paths[i][j] morphisms; so
    (O, O(D_1), ..., O(D_{n-1})) is a strong exceptional collection whose
    forward Hom dimensions are the upper unitriangular matrix paths.
    Tuples come in lexicographic box order. A malformed paths matrix, or a
    bound that is negative or not an integer, raises ValueError. Riemann-Roch
    gives pair_hom(D) = -K.D on strong pairs, so a matrix that is not additive
    (paths[i][j] = paths[0][j] - paths[0][i] for 0 < i < j) has no
    realisation on any surface: its () is given without a level-set build."""
    bound = _as_int(bound, "search bound", 0)
    rows = _check_paths(paths)
    if any(rows[i][j] != rows[0][j] - rows[0][i] for j in range(len(rows)) for i in range(1, j)):
        return ()
    return tuple(_extend(rows, *surface._strong_pairs(bound), ()))


def _extend(paths: Sequence[Sequence[int]], levels: dict, hom, ds: tuple):
    """Every completion of the partial collection ds, depth-first in box
    order: D_k runs over L(paths[0][k]) and is kept when its differences
    D_k - D_i with 0 < i < k have hom(D_k - D_i) = paths[i][k]."""
    k = len(ds) + 1
    if k == len(paths):
        yield ds
        return
    for v in levels.get(paths[0][k], ()):
        for i, d in enumerate(ds, 1):
            if hom(sub_divisors(v, d)) != paths[i][k]:
                break
        else:
            yield from _extend(paths, levels, hom, ds + (v,))


def search_abc(surface: ToricSurface, a: int, b: int, c: int, bound: int = 3) -> AbcSearchResult:
    """All (D, E) in Picard coordinates with entries in [-bound, bound] such
    that (O, O(D), O(E)) is strong exceptional with quiver data (a, b, c).

    An impossible triple (a + b != ab + c) returns an empty result with a
    diagnostic; for any strong exceptional triple of line bundles the
    identity a + b = ab + c is forced by Riemann-Roch. A bound or arrow
    count that is negative or not an integer raises ValueError.
    """
    bound = _as_int(bound, "search bound", 0)
    a = _as_int(a, "arrow count", 0)
    b = _as_int(b, "arrow count", 0)
    c = _as_int(c, "arrow count", 0)
    if a + b != a * b + c:
        return AbcSearchResult(
            (a, b, c),
            (),
            f"no strong exceptional triple of line bundles can realise (a,b,c)=({a},{b},{c}): "
            f"a+b={a + b} but ab+c={a * b + c}, and a+b=ab+c is forced",
        )
    paths = ((1, a, a * b + c), (0, 1, b), (0, 0, 1))
    return AbcSearchResult((a, b, c), tuple(_extend(paths, *surface._strong_pairs(bound), ())), None)


def search_kronecker(surface: ToricSurface, n: int, bound: int = 5) -> tuple:
    """All D in Picard coordinates with entries in [-bound, bound] such that
    (O, O(D)) is strong exceptional with n forward morphisms, a rank-one
    realisation of the n-arrow Kronecker quiver: the kept L(n), in box order."""
    n = _as_int(n, "Kronecker arrow count", 1)
    bound = _as_int(bound, "search bound", 0)
    return surface._strong_pairs(bound)[0].get(n, ())


# --- the star family ---------------------------------------------------------

class StarFamilyReport(NamedTuple):
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
    A failure of either property is a bug, raised as ConsistencyError.
    """
    n = _as_int(n, "star family size", 0)
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
            raise ConsistencyError(f"exceptional rays {i} and {j} are not disjoint")
    for i in rays:
        if s.self_intersections[i] != -1:
            raise ConsistencyError(f"ray {i} is not a (-1)-curve")
    return s, rays


def verify_star_family(n: int) -> StarFamilyReport:
    """Build and verify the collection (O, O_{E_1}, ..., O_{E_n}) whose
    endomorphism quiver is the n-leaf star: one morphism from the structure
    sheaf to each exceptional curve, none between distinct curves."""
    s, rays = star_family_surface(n)
    n = len(rays)
    coll = Collection(
        s, (LineBundle(s.zero_divisor()),) + tuple(CurveSheaf(i) for i in rays)
    )
    result = verify_collection(coll, strong=True)
    dims_ok = result.ok and result.forward_hom() == paths_matrix(star(n))
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


class TableCase(NamedTuple):
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
    a, b, c = _as_ints(abc, "arrow count")
    d = surface.lift_pic(d_pic)
    e = surface.lift_pic(e_pic)
    pairs = (("D", "-D", d, a), ("E-D", "D-E", sub_divisors(e, d), b), ("E", "-E", e, a * b + c))
    failures = []
    for label, neg_label, divisor, expected in pairs:
        if surface._pair_hom(divisor) != expected:
            failures.append(
                f"(O, O({label})) is not a strong exceptional pair with {expected} morphisms: "
                f"O({label}) has cohomology {tuple(surface._coh(divisor))}, "
                f"O({neg_label}) has {tuple(surface._coh(neg_divisor(divisor)))}"
            )
    return tuple(failures)


def verify_divisor_table(m_max: int) -> list:
    """Run every parametrised row of the 3-vertex divisor table for
    m = 1..m_max on the degree-6 del Pezzo surface."""
    m_max = _as_int(m_max, "m_max", 1)
    surface = blowup_p2(3)
    cases = []
    for row, abc_of_m, d_of_m, e_of_m in TABLE_ROWS:
        for m in range(1, m_max + 1):
            abc = abc_of_m(m)
            d_pic, e_pic = tuple(d_of_m(m)), tuple(e_of_m(m))
            failures = check_table_case(surface, abc, d_pic, e_pic)
            cases.append(TableCase(row, m, abc, d_pic, e_pic, failures))
    return cases

