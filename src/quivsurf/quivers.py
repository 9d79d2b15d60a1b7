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
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import (
    ExactMatrix,
    Signature,
    rank_rational,
    signature_symmetric,
)

# Largest quiver for which the forbidden-subquiver witness is searched: the
# scan visits up to C(15, 4) = 1,365 four-vertex subsets.
SUBQUIVER_BOUND = 15


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic directed multigraph; parallel arrows are allowed."""

    vertices: int
    arrows: tuple

    def __post_init__(self):
        if self.vertices < 1:
            raise ValueError("quiver needs at least one vertex")
        arrows = tuple((int(s), int(t)) for s, t in self.arrows)
        for s, t in arrows:
            if not (0 <= s < self.vertices and 0 <= t < self.vertices):
                raise ValueError(f"arrow ({s},{t}) out of range for {self.vertices} vertices")
            if s == t:
                raise ValueError(f"loop at vertex {s}: quiver must be acyclic")
        object.__setattr__(self, "arrows", arrows)
        if self.topological_order() is None:
            raise ValueError("quiver has an oriented cycle")

    def topological_order(self) -> Optional[tuple]:
        """Kahn's algorithm; None if the quiver is cyclic."""
        indeg = [0] * self.vertices
        for _, t in self.arrows:
            indeg[t] += 1
        ready = sorted(v for v in range(self.vertices) if indeg[v] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        ready.append(t)
            ready.sort()
        return tuple(order) if len(order) == self.vertices else None

    def arrow_counts(self) -> list:
        a = [[0] * self.vertices for _ in range(self.vertices)]
        for s, t in self.arrows:
            a[s][t] += 1
        return a

    def is_sink(self, v: int) -> bool:
        return all(s != v for s, _ in self.arrows)

    def is_source(self, v: int) -> bool:
        return all(t != v for _, t in self.arrows)


def euler_matrix_simples(q: Quiver) -> ExactMatrix:
    """Euler form in the basis of simple modules: E = I - A."""
    a = q.arrow_counts()
    n = q.vertices
    return ExactMatrix.from_rows(
        [[(1 if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
    )


def paths_matrix(q: Quiver) -> ExactMatrix:
    """Directed path counts P[i][j] (length 0 included): the inverse of I - A.

    Row v is e_v plus row t once for each arrow v -> t, so parallel arrows
    count separately; filling rows in reverse topological order makes every
    row t ready before a row that needs it.
    """
    n = q.vertices
    rows = [None] * n
    for v in reversed(q.topological_order()):
        row = [1 if j == v else 0 for j in range(n)]
        for s, t in q.arrows:
            if s == v:
                row = [x + y for x, y in zip(row, rows[t])]
        rows[v] = row
    return ExactMatrix.from_rows(rows)


def chi_minus(e: ExactMatrix) -> ExactMatrix:
    """Antisymmetrised form E - E^t."""
    if not e.is_square:
        raise ValueError("chi_minus requires a square matrix")
    return e - e.transpose()


def chi_plus(e: ExactMatrix) -> ExactMatrix:
    """Symmetrised form E + E^t."""
    if not e.is_square:
        raise ValueError("chi_plus requires a square matrix")
    return e + e.transpose()


@dataclass(frozen=True)
class ObstructionReport:
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
    """
    if q.vertices > SUBQUIVER_BOUND:
        raise ValueError(
            f"full-subquiver search is limited to {SUBQUIVER_BOUND} vertices "
            f"(quiver has {q.vertices})"
        )
    m = chi_minus(euler_matrix_simples(q)).entries
    for subset in itertools.combinations(range(q.vertices), 4):
        if rank_rational(ExactMatrix.from_rows([[m[i][j] for j in subset] for i in subset])) > 2:
            return subset
    return None


def obstruction_report(source) -> ObstructionReport:
    """Run both obstructions on a quiver or on a raw square Gram matrix.

    Matrix input is taken as the Euler form in some exceptional basis; the
    verdicts are congruence invariants so any basis gives the same answer.
    The forbidden-subquiver witness is only searched for quiver input of
    at most SUBQUIVER_BOUND vertices; larger failing quivers report None.
    """
    quiver = None
    if isinstance(source, Quiver):
        quiver = source
        e = euler_matrix_simples(source)
    elif isinstance(source, ExactMatrix):
        e = source
    else:
        e = ExactMatrix.from_rows(source)
    if not e.is_square:
        raise ValueError("Euler form must be square")
    rank_cm = rank_rational(chi_minus(e))
    sig = signature_symmetric(chi_plus(e))
    passes_rank = rank_cm <= 2
    passes_signature = sig.n_minus <= 2
    witness = None
    if quiver is not None and not passes_rank and quiver.vertices <= SUBQUIVER_BOUND:
        witness = forbidden_full_subquiver(quiver)
    return ObstructionReport(rank_cm, sig, passes_rank, passes_signature, witness)


def reflect(q: Quiver, v: int) -> Quiver:
    """BGP reflection: reverse every arrow incident to a sink or source."""
    if not (0 <= v < q.vertices):
        raise ValueError(f"vertex {v} out of range")
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
    if n < 1:
        raise ValueError("A_n needs n >= 1")
    return Quiver(n, tuple((i, i + 1) for i in range(n - 1)))


def tree_quiver(arm_lengths: Sequence[int]) -> Quiver:
    """Star-shaped tree: vertex 0 with arms of the given lengths, arrows outward."""
    arrows = []
    nxt = 1
    for length in arm_lengths:
        prev = 0
        for _ in range(length):
            arrows.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Quiver(nxt, tuple(arrows))


def dynkin_d(n: int) -> Quiver:
    if n < 4:
        raise ValueError("D_n needs n >= 4")
    return tree_quiver([n - 3, 1, 1])


def dynkin_e(n: int) -> Quiver:
    arms = {6: (1, 2, 2), 7: (1, 2, 3), 8: (1, 2, 4)}
    if n not in arms:
        raise ValueError("E_n exists for n in {6,7,8}")
    return tree_quiver(arms[n])


def affine_a(n: int) -> Quiver:
    """The (n+1)-cycle, oriented acyclically with one source and one sink."""
    if n < 1:
        raise ValueError("affine A_n needs n >= 1")
    arrows = [(i, i + 1) for i in range(n)]
    arrows.append((0, n))
    return Quiver(n + 1, tuple(arrows))


def affine_d(n: int) -> Quiver:
    """Chain of n-3 middle vertices with two leaves attached at each end."""
    if n < 4:
        raise ValueError("affine D_n needs n >= 4")
    middle = n - 3
    arrows = [(i, i + 1) for i in range(middle - 1)]
    leaves = middle
    arrows += [(0, leaves), (0, leaves + 1), (middle - 1, leaves + 2), (middle - 1, leaves + 3)]
    return Quiver(n + 1, tuple(arrows))


def affine_e(n: int) -> Quiver:
    arms = {6: (2, 2, 2), 7: (1, 3, 3), 8: (1, 2, 5)}
    if n not in arms:
        raise ValueError("affine E_n exists for n in {6,7,8}")
    return tree_quiver(arms[n])


def kronecker(n: int) -> Quiver:
    """Two vertices with n parallel arrows."""
    if n < 0:
        raise ValueError("arrow count must be nonnegative")
    return Quiver(2, tuple((0, 1) for _ in range(n)))


def star(n: int) -> Quiver:
    """Hub 0 with n leaves, all arrows outward (the S_n quiver)."""
    return tree_quiver([1] * n)


def three_vertex(a: int, b: int, c: int) -> Quiver:
    """Q_{a,b,c}: a arrows 0->1, b arrows 1->2, c arrows 0->2."""
    arrows = [(0, 1)] * a + [(1, 2)] * b + [(0, 2)] * c
    return Quiver(3, tuple(arrows))


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

