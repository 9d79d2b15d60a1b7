"""Acyclic quivers, Euler forms, and the two surface-embeddability obstructions.

For a hereditary path algebra the Euler form in the basis of simple
modules is E = I - A, with A the arrow-count matrix. The antisymmetrised
form E - E^t and the symmetrised form E + E^t carry the two obstructions:
a derived category that embeds into that of a smooth projective surface
has rank(chi^-) <= 2 and no 3-dimensional negative definite subspace for
chi^+. Both quantities are congruence invariants, so the choice of basis
(and of orientation, for presets) does not matter.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple, Optional, Sequence

from .linalg import (
    FrozenValue,
    Signature,
    _as_int,
    _as_ints,
    _square_ints,
    rank_rational,
    signature_symmetric,
)

# Largest quiver for which the forbidden-subquiver witness is searched: the
# scan visits up to C(15, 4) = 1,365 four-vertex subsets.
SUBQUIVER_BOUND = 15


def _arrow(arrow) -> tuple:
    """arrow as a (source, target) pair of ints, else ValueError naming it."""
    try:
        s, t = arrow
    except (TypeError, ValueError):
        raise ValueError(f"arrow {arrow!r} is not a (source, target) pair") from None
    return _as_ints((s, t), "arrow endpoint")


class Quiver(FrozenValue):
    """Finite acyclic directed multigraph; parallel arrows are allowed."""

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: int, arrows: tuple):
        vertices = _as_int(vertices, "quiver vertex count", 1)
        try:
            arrows = tuple([_arrow(a) for a in arrows])
        except TypeError:
            raise ValueError(f"quiver arrows: expected a sequence, got {arrows!r}") from None
        for s, t in arrows:
            if not (0 <= s < vertices and 0 <= t < vertices):
                raise ValueError(f"arrow ({s},{t}) out of range for {vertices} vertices")
            if s == t:
                raise ValueError(f"loop at vertex {s}: quiver must be acyclic")
        self._init(vertices, arrows)
        if self.topological_order() is None:
            raise ValueError("quiver has an oriented cycle")

    def topological_order(self) -> Optional[tuple]:
        """A topological order, or None if cyclic: the sources in index order,
        then breadth first, by Kahn's algorithm in one walk of the arrows."""
        indeg = [0] * self.vertices
        targets = [[] for _ in range(self.vertices)]
        for s, t in self.arrows:
            indeg[t] += 1
            targets[s].append(t)
        order = [v for v in range(self.vertices) if not indeg[v]]
        for v in order:
            for t in targets[v]:
                indeg[t] -= 1
                if not indeg[t]:
                    order.append(t)
        return tuple(order) if len(order) == self.vertices else None

    def is_sink(self, v: int) -> bool:
        return all(s != v for s, _ in self.arrows)

    def is_source(self, v: int) -> bool:
        return all(t != v for _, t in self.arrows)


def euler_matrix_simples(q: Quiver) -> list:
    """Euler form in the basis of simple modules, E = I - A, as rows of
    ints: each arrow s -> t takes one from entry (s, t)."""
    n = q.vertices
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for s, t in q.arrows:
        e[s][t] -= 1
    return e


def paths_matrix(q: Quiver) -> list:
    """Directed path counts P[i][j] (length 0 included), as rows of ints: the
    inverse of I - A.

    Row v is e_v plus k times row t for the k arrows v -> t, counted in one
    walk of the arrows, so each distinct target costs one row operation;
    filling rows in reverse topological order makes every row t ready first.
    """
    n = q.vertices
    targets = [{} for _ in range(n)]  # targets[v][t]: the number of arrows v -> t
    for s, t in q.arrows:
        targets[s][t] = targets[s].get(t, 0) + 1
    rows = [None] * n
    for v in reversed(q.topological_order()):
        row = [0] * n
        row[v] = 1
        for t, k in targets[v].items():
            row = [x + k * y for x, y in zip(row, rows[t])]
        rows[v] = row
    return rows


def _chi(e: Sequence[Sequence], op) -> list:
    """op(E, E^t) entrywise, in one pass over the rows and columns of
    square rows E, unchecked."""
    return [[op(a, b) for a, b in zip(row, col)] for row, col in zip(e, zip(*e))]


def chi_minus(e: Sequence[Sequence]) -> list:
    """Antisymmetrised form E - E^t of square integer rows, as rows."""
    return _chi(_square_ints(e, "chi_minus"), operator.sub)


def chi_plus(e: Sequence[Sequence]) -> list:
    """Symmetrised form E + E^t of square integer rows, as rows."""
    return _chi(_square_ints(e, "chi_plus"), operator.add)


class ObstructionReport(NamedTuple):
    """Verdicts of the two embeddability obstructions for one Euler form."""

    rank_chi_minus: int
    signature_chi_plus: Signature
    passes_rank: bool
    passes_signature: bool
    forbidden_witness: Optional[tuple]

    @property
    def passes(self) -> bool:
        return self.passes_rank and self.passes_signature


def forbidden_full_subquiver(q: Quiver) -> Optional[tuple]:
    """Smallest vertex subset whose induced subquiver has rank(chi^-) > 2.

    The full subquiver on S has Euler form (I - A) restricted to S x S, so
    its chi^- is the principal submatrix of chi^-(Q) on S; the scan reads
    those minors off chi^-(Q) without building any subquiver. Only
    four-vertex subsets are scanned, lexicographically. That is exact:
    a skew form of rank >= 4 has a nonsingular principal minor of that size,
    and Pfaffian expansion descends through nonzero principal Pfaffians to
    a nonsingular principal 4x4 minor. Returns None when rank(chi^-) <= 2.
    Each minor is cut from the int rows of chi^- by one operator.itemgetter
    per subset, rows then entries, and checked in the copy rank_rational
    eliminates.
    """
    if q.vertices > SUBQUIVER_BOUND:
        raise ValueError(
            f"full-subquiver search is limited to {SUBQUIVER_BOUND} vertices "
            f"(quiver has {q.vertices})"
        )
    m = _chi(euler_matrix_simples(q), operator.sub)
    for subset in itertools.combinations(range(q.vertices), 4):
        pick = operator.itemgetter(*subset)
        if rank_rational([pick(row) for row in pick(m)]) > 2:
            return subset
    return None


def obstruction_report(source) -> ObstructionReport:
    """Run both obstructions on a Quiver or on square integer Gram rows.

    Gram rows, checked by _square_ints, are taken as the Euler form in some
    exceptional basis; the verdicts are congruence invariants so any basis
    gives the same answer. chi^- and chi^+ are built by _chi, the unchecked
    core of chi_minus and chi_plus, and rank_rational and
    signature_symmetric check them in the copies they eliminate. The
    witness is only searched for quiver input of at most SUBQUIVER_BOUND
    vertices.
    """
    if isinstance(source, Quiver):
        e = euler_matrix_simples(source)
    else:
        e = _square_ints(source, "Gram matrix")
    rank_cm = rank_rational(_chi(e, operator.sub))
    sig = signature_symmetric(_chi(e, operator.add))
    passes_rank = rank_cm <= 2
    passes_signature = sig.n_minus <= 2
    witness = None
    if isinstance(source, Quiver) and not passes_rank and source.vertices <= SUBQUIVER_BOUND:
        witness = forbidden_full_subquiver(source)
    return ObstructionReport(rank_cm, sig, passes_rank, passes_signature, witness)


def reflect(q: Quiver, v: int) -> Quiver:
    """BGP reflection: reverse every arrow incident to a sink or source."""
    v = _as_int(v, "vertex", 0, q.vertices - 1)
    if not (q.is_sink(v) or q.is_source(v)):
        raise ValueError(f"vertex {v} is neither a sink nor a source")
    arrows = tuple(
        (t, s) if v in (s, t) else (s, t) for s, t in q.arrows
    )
    return Quiver(q.vertices, arrows)


# ---------------------------------------------------------------------------
# Preset quivers.
#
# Orientations: linear for A_n; arrows outward from the branch vertex for the
# D/E trees; one source and one sink for the affine A_n cycle. Obstruction
# reports are reflection-invariant, so these choices are conventions only.
# ---------------------------------------------------------------------------


def linear_quiver(n: int) -> Quiver:
    """A_n with linear orientation 0 -> 1 -> ... -> n-1."""
    n = _as_int(n, "A_n index", 1)
    return Quiver(n, tuple((i, i + 1) for i in range(n - 1)))


def tree_quiver(arm_lengths: Sequence[int]) -> Quiver:
    """Star-shaped tree: vertex 0 with arms of the given lengths, arrows outward."""
    arrows = []
    nxt = 1
    for length in arm_lengths:
        prev = 0
        for _ in range(_as_int(length, "arm length", 0)):
            arrows.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Quiver(nxt, tuple(arrows))


def dynkin_d(n: int) -> Quiver:
    return tree_quiver([_as_int(n, "D_n index", 4) - 3, 1, 1])


def dynkin_e(n: int) -> Quiver:
    arms = {6: (1, 2, 2), 7: (1, 2, 3), 8: (1, 2, 4)}
    return tree_quiver(arms[_as_int(n, "E_n index", 6, 8)])


def affine_a(n: int) -> Quiver:
    """The (n+1)-cycle, oriented acyclically with one source and one sink."""
    n = _as_int(n, "affine A_n index", 1)
    arrows = [(i, i + 1) for i in range(n)]
    arrows.append((0, n))
    return Quiver(n + 1, tuple(arrows))


def affine_d(n: int) -> Quiver:
    """Chain of n-3 middle vertices with two leaves attached at each end."""
    n = _as_int(n, "affine D_n index", 4)
    middle = n - 3
    arrows = [(i, i + 1) for i in range(middle - 1)]
    leaves = middle
    arrows += [(0, leaves), (0, leaves + 1), (middle - 1, leaves + 2), (middle - 1, leaves + 3)]
    return Quiver(n + 1, tuple(arrows))


def affine_e(n: int) -> Quiver:
    arms = {6: (2, 2, 2), 7: (1, 3, 3), 8: (1, 2, 5)}
    return tree_quiver(arms[_as_int(n, "affine E_n index", 6, 8)])


def kronecker(n: int) -> Quiver:
    """Two vertices with n parallel arrows."""
    return Quiver(2, ((0, 1),) * _as_int(n, "arrow count", 0))


def star(n: int) -> Quiver:
    """Hub 0 with n leaves, all arrows outward (the S_n quiver)."""
    return tree_quiver([1] * _as_int(n, "star leaf count", 0))


def three_vertex(a: int, b: int, c: int) -> Quiver:
    """Q_{a,b,c}: a arrows 0->1, b arrows 1->2, c arrows 0->2."""
    a, b, c = (_as_int(x, "arrow count", 0) for x in (a, b, c))
    return Quiver(3, ((0, 1),) * a + ((1, 2),) * b + ((0, 2),) * c)


def dynkin_euclidean_family() -> list:
    """The Dynkin and Euclidean presets used by the classification table.

    Returns (name, quiver) pairs: A_1..A_8, D_4..D_8, E_6..E_8, then the
    affine types A~1..A~7, D~4..D~7, E~6..E~8.
    """
    family = []
    family += [(f"A{n}", linear_quiver(n)) for n in range(1, 9)]
    family += [(f"D{n}", dynkin_d(n)) for n in range(4, 9)]
    family += [(f"E{n}", dynkin_e(n)) for n in (6, 7, 8)]
    family += [(f"A~{n}", affine_a(n)) for n in range(1, 8)]
    family += [(f"D~{n}", affine_d(n)) for n in range(4, 8)]
    family += [(f"E~{n}", affine_e(n)) for n in (6, 7, 8)]
    return family

