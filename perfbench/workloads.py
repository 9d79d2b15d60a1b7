"""Seeded workloads for the quivsurf benchmark.

A workload turns a seed into a pool of job specs made of plain ints and
tuples, runs one spec per job against the library, and checks each output
outside the timed region. The closed loop in ``run.py`` cycles through the
pool; ``run`` gets a ``state`` dict that is fresh for every pass, so jobs
that share a surface object inside a pass (the search groups) start each
pass with empty per-surface caches.

Jobs call the library through module attributes (``exceptional.search_abc``,
``toric.ToricSurface``) so that the traced run in ``spans.py`` sees them.
Every input stays inside what the README documents as valid: acyclic
quivers of at most 15 vertices, unitriangular (hence unimodular) integer
Gram matrices, non-negative search bounds and plain Python ints.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout

import oracles
from quivsurf import cli, exceptional, linalg, quivers, toric

DEFAULT_SEED = 1

# sha256 of the pinned outputs of the first `golden_jobs` specs at
# DEFAULT_SEED, as produced by `golden_digest`.
GOLDEN = {
    "reproduce": "f14c3ce915fb682f10f4ceb9d59b315d11e14eee98551f6f2b390f331a298ef8",
    "search": "aef605e0bf27dd39d90365511af1b4049a88a60c2525e715116c7016dcdd5300",
    "obstruct": "b0606d487b9a16c78b4fcee0da4d4f4c23c7d9cf5448bbfe671aed44909e271b",
    "coh_large": "e43a4597678f97d4a6a5b57d4151a77ded978971098d28326036dd2f76383396",
}

BASE_FANS = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "F1": ((1, 0), (0, 1), (-1, 1), (0, -1)),
    "F2": ((1, 0), (0, 1), (-1, 2), (0, -1)),
    "F3": ((1, 0), (0, 1), (-1, 3), (0, -1)),
    "dP6": ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
}


def golden_digest(workload, outputs) -> str:
    """sha256 over the exact outputs a workload pins, in job order."""
    pinned = json.dumps([workload.pinned(o) for o in outputs], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(pinned.encode()).hexdigest()


# --- independent arithmetic used by the generators and the checks -----------


def _cross(v, w) -> int:
    return v[0] * w[1] - v[1] * w[0]


def _ray_products(rays, d) -> list:
    """D.D_i for every ray i, from the wall relation D_i^2 = -det(v_{i-1}, v_{i+1})."""
    n = len(rays)
    return [
        d[i - 1] + d[(i + 1) % n] - _cross(rays[i - 1], rays[(i + 1) % n]) * d[i]
        for i in range(n)
    ]


def rr_chi(rays, d) -> int:
    """Riemann-Roch 1 + (D^2 - K.D)/2 with K = -sum D_i."""
    products = _ray_products(rays, d)
    return 1 + (sum(c * p for c, p in zip(d, products)) + sum(products)) // 2


def is_ample(rays, d) -> bool:
    """Toric Kleiman criterion: D.C > 0 for every invariant curve C."""
    return all(p > 0 for p in _ray_products(rays, d))


def bareiss_rank(rows) -> int:
    """Rank over Q of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for r in range(rank + 1, len(a)):
            for c in range(col + 1, len(a[0])):
                a[r][c] = (p * a[r][c] - a[r][col] * a[rank][c]) // prev
            a[r][col] = 0
        prev = p
        rank += 1
    return rank


def _euler_rows(n, arrows) -> list:
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for s, t in arrows:
        e[s][t] -= 1
    return e


def _skew_rank(e) -> int:
    n = len(e)
    return bareiss_rank([[e[i][j] - e[j][i] for j in range(n)] for i in range(n)])


def _witness_scan_length(n, arrows) -> int:
    """How many 4-subsets a lexicographic scan tests until one has a nonzero
    Pfaffian of chi^-, i.e. rank(chi^-) = 4; 0 when the quiver passes the
    rank test."""
    e = _euler_rows(n, arrows)
    if _skew_rank(e) <= 2:
        return 0
    m = [[e[i][j] - e[j][i] for j in range(n)] for i in range(n)]
    for k, (a, b, c, d) in enumerate(itertools.combinations(range(n), 4), 1):
        if m[a][b] * m[c][d] - m[a][c] * m[b][d] + m[a][d] * m[b][c]:
            return k
    return math.comb(n, 4) + 1


def matched_pick(draws, keys, reference_keys, count) -> list:
    """`count` draws whose keys lie nearest to evenly spaced quantiles of
    `reference_keys`, in draw order. The reference sample comes from a fixed
    seed, so every seed's pool has the same cost profile while its members
    still depend on the seed."""
    ranked = sorted(reference_keys)
    targets = [ranked[(2 * k + 1) * len(ranked) // (2 * count)] for k in range(count)]
    free, chosen = set(range(len(draws))), []
    for target in targets:
        i = min(free, key=lambda i: (abs(keys[i] - target), i))
        free.remove(i)
        chosen.append(i)
    return [draws[i] for i in sorted(chosen)]


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    golden_jobs = 1  # leading default-seed specs whose outputs GOLDEN pins

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, spec, state: dict):
        raise NotImplementedError

    def check(self, spec, output):
        """None if the output is right, else a one-line reason."""
        raise NotImplementedError

    def pinned(self, output):
        """The part of an output that must never change."""
        return output


REPORT_ITEMS = (
    "dynkin_euclidean_classification",
    "five_vertex_gram",
    "four_vertex_example",
    "three_vertex_divisor_table",
    "isolated_case_220",
    "kronecker_family",
    "star_family",
    "surface_theorems",
    "kunneth_oracle",
    "abc_solver",
)


class Reproduce(Workload):
    """`quivsurf reproduce --m-max 5 --seed S` in process, one S per job."""

    name = "reproduce"
    pool = 16

    def __init__(self):
        self._classification = None

    def generate(self, seed):
        rng = random.Random(seed)
        return [rng.randrange(1, 10**6) for _ in range(self.pool)]

    def run(self, spec, state):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(["reproduce", "--m-max", "5", "--seed", str(spec)])
        passed = sorted(
            line.partition(": ")[0]
            for line in err.getvalue().splitlines()
            if line.partition(": ")[2].startswith("PASS")
        )
        return {"rc": rc, "stdout": out.getvalue(), "stderr_pass": passed}

    def pinned(self, output):
        return output["stdout"]

    def _expected_classification(self) -> dict:
        """Rank of chi^- by Bareiss and n_minus of chi^+ by the charpoly oracle."""
        if self._classification is None:
            table = {}
            for name, q in quivers.dynkin_euclidean_family():
                e = _euler_rows(q.vertices, q.arrows)
                plus = [[e[i][j] + e[j][i] for j in range(q.vertices)] for i in range(q.vertices)]
                sig = oracles.signature_by_charpoly(linalg.ExactMatrix.from_rows(plus))
                table[name] = (_skew_rank(e), sig.n_minus)
            self._classification = table
        return self._classification

    def check(self, spec, output):
        if output["rc"] != 0:
            return f"exit code {output['rc']}"
        report = json.loads(output["stdout"])
        result = report["result"]
        if report["command"] != "reproduce" or report["pass"] is not True:
            return "report does not pass"
        if set(result["summary"]) != set(REPORT_ITEMS) or not all(result["summary"].values()):
            return f"summary {result['summary']}"
        if output["stderr_pass"] != sorted(REPORT_ITEMS):
            return f"stderr PASS lines {output['stderr_pass']}"
        items = {item["item"]: item for item in result["items"]}
        if items["surface_theorems"]["seed"] != spec:
            return "surface_theorems ran with another seed"
        expected = self._expected_classification()
        for row in items["dynkin_euclidean_classification"]["table"]:
            got = (row["rank_chi_minus"], row["n_minus"])
            if got != expected[row["name"]]:
                return f"{row['name']}: rank/n_minus {got}, oracle {expected[row['name']]}"
        return None


def _blow_up_to(rays, rho, rng) -> tuple:
    """Insert the sum of a random adjacent ray pair until the Picard rank is rho."""
    rays = list(rays)
    while len(rays) - 2 < rho:
        i = rng.randrange(len(rays))
        v, w = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (v[0] + w[0], v[1] + w[1]))
    return tuple(rays)


def _fan_size(rays) -> int:
    """Sum of |x| + |y| over the rays. Polytopes grow with it, and so does
    the cost of a search on the fan: over one pool its correlation with a
    group's time was about 0.9 at each Picard rank."""
    return sum(abs(x) + abs(y) for x, y in rays)


ABC_TRIPLES = tuple(
    (a, b, a + b - a * b) for a in range(4) for b in range(4) if 0 <= a + b - a * b <= 3
)


class Search(Workload):
    """Groups of searches sharing one fresh surface: 3 solvable triples, one
    impossible triple, then Kronecker searches for n = 1..4, all with bound 2.

    Each stratum (base surface, Picard rank) takes the seeded blow-ups whose
    fan sizes match evenly spaced quantiles of a fixed reference sample
    (`matched_pick`). Rank-4 groups carry most of the pool's time and their
    cost varies by about 27% from fan to fan, so without matching the pool's
    cost moved by about 6% from seed to seed."""

    name = "search"
    golden_jobs = 72  # the first group of each stratum
    groups = 54
    bound = 2
    draws = 60
    strata = tuple((base, rho) for rho in (2, 3, 4) for base in ("P2", "P1xP1", "F2"))

    def generate(self, seed):
        rng = random.Random(seed)
        per_stratum = self.groups // len(self.strata)
        fans = {}
        for base, rho in self.strata:
            reference_rng = random.Random(f"search reference {base} {rho}")
            reference = [_fan_size(_blow_up_to(BASE_FANS[base], rho, reference_rng)) for _ in range(self.draws)]
            draws = [_blow_up_to(BASE_FANS[base], rho, rng) for _ in range(self.draws)]
            fans[base, rho] = matched_pick(draws, [_fan_size(r) for r in draws], reference, per_stratum)
        specs = []
        for g in range(self.groups):
            base, rho = self.strata[g % len(self.strata)]
            rays = fans[base, rho][g // len(self.strata)]
            a, b = rng.randrange(4), rng.randrange(4)
            impossible = (a, b, max(a + b - a * b, 0) + rng.randint(1, 2))
            calls = [("abc",) + t for t in rng.sample(ABC_TRIPLES, 3)]
            calls += [("abc",) + impossible] + [("kronecker", n) for n in range(1, 5)]
            specs += [(g, rays, call) for call in calls]
        return specs

    def run(self, spec, state):
        group, rays, call = spec
        surface = state.get(group)
        if surface is None:
            surface = state[group] = toric.ToricSurface(rays)
        if call[0] == "abc":
            outcome = exceptional.search_abc(surface, *call[1:], bound=self.bound)
            return {
                "pairs": [[list(d), list(e)] for d, e in outcome.pairs],
                "diagnostic": bool(outcome.diagnostic),
            }
        found = exceptional.search_kronecker(surface, call[1], self.bound)
        return {"found": [list(v) for v in found]}

    def pinned(self, output):
        return output.get("pairs", output.get("found"))

    def check(self, spec, output):
        _, rays, call = spec
        surface = toric.ToricSurface(rays)
        zero = surface.zero_divisor()

        def strong(*pics):
            coll = exceptional.line_collection(surface, [zero] + [surface.lift_pic(p) for p in pics])
            return coll, exceptional.verify_collection(coll, strong=True)

        vectors = [v for pair in output.get("pairs", ()) for v in pair] + output.get("found", [])
        if any(abs(x) > self.bound for v in vectors for x in v):
            return "result outside the search box"
        if call[0] == "kronecker":
            for v in output["found"]:
                _, result = strong(v)
                if not result.ok or result.hom[0][1][0] != call[1]:
                    return f"{v} is not a strong pair with {call[1]} morphisms"
            return None
        a, b, c = call[1:]
        if a + b != a * b + c:
            return None if output == {"pairs": [], "diagnostic": True} else "impossible triple answered"
        if output["diagnostic"]:
            return "diagnostic on a solvable triple"
        for d, e in output["pairs"]:
            coll, result = strong(d, e)
            if not result.ok or exceptional.abc_of(coll) != (a, b, c):
                return f"pair {d}, {e} does not realise {(a, b, c)}"
        return None


class Obstruct(Workload):
    """Obstruction reports on sparse random acyclic quivers of 4-15 vertices
    (about two thirds fail the rank test) and on unitriangular Gram matrices
    of size 4-12, in the order quiver, quiver, Gram matrix.

    The cost of a failing quiver is set by how far the lexicographic witness
    scan runs, which is heavy-tailed. So for each vertex count the pool
    takes the seeded draws whose scan lengths match evenly spaced quantiles
    of a fixed reference sample (`matched_pick`): its cost then barely
    depends on the seed.
    """

    name = "obstruct"
    golden_jobs = 27
    per_size = 10
    draws = 200

    def generate(self, seed):
        rng = random.Random(seed)
        picked = []
        for n in range(4, 16):
            reference_rng = random.Random(f"obstruct reference {n}")
            reference = [_witness_scan_length(n, self._random_arrows(reference_rng, n)) for _ in range(self.draws)]
            draws = [self._random_arrows(rng, n) for _ in range(self.draws)]
            keys = [_witness_scan_length(n, arrows) for arrows in draws]
            picked += [(n, arrows) for arrows in matched_pick(draws, keys, reference, self.per_size)]
        picked = [picked[i + j] for j in range(self.per_size) for i in range(0, len(picked), self.per_size)]
        specs = []
        for k, (n, arrows) in enumerate(picked):
            specs.append(("quiver", n, arrows))
            if k % 2 == 1:
                m = 4 + (k // 2) % 9
                rows = [
                    [1 if i == j else rng.choice((-2, -1, 0, 0, 1, 2, 3)) if j > i else 0 for j in range(m)]
                    for i in range(m)
                ]
                specs.append(("gram", rows))
        return specs

    @staticmethod
    def _random_arrows(rng, n) -> tuple:
        order = list(range(n))
        rng.shuffle(order)
        arrows = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.8 / n:
                    arrows += [(order[i], order[j])] * rng.choice((1, 1, 2))
        return tuple(arrows)

    def run(self, spec, state):
        if spec[0] == "gram":
            report = quivers.obstruction_report(spec[1])
        else:
            report = quivers.obstruction_report(quivers.Quiver(spec[1], spec[2]))
        witness = report.forbidden_witness
        return {
            "rank_chi_minus": report.rank_chi_minus,
            "signature_chi_plus": list(report.signature_chi_plus),
            "passes_rank": report.passes_rank,
            "passes_signature": report.passes_signature,
            "passes": report.passes,
            "forbidden_witness": list(witness) if witness is not None else None,
        }

    def check(self, spec, output):
        e = spec[1] if spec[0] == "gram" else _euler_rows(spec[1], spec[2])
        n = len(e)
        plus = [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]
        sig = oracles.signature_by_charpoly(linalg.ExactMatrix.from_rows(plus))
        rank = _skew_rank(e)
        if output["signature_chi_plus"] != list(sig):
            return f"signature {output['signature_chi_plus']}, oracle {list(sig)}"
        if output["rank_chi_minus"] != rank:
            return f"rank {output['rank_chi_minus']}, oracle {rank}"
        verdicts = (rank <= 2, sig.n_minus <= 2)
        if (output["passes_rank"], output["passes_signature"]) != verdicts or output["passes"] != all(verdicts):
            return "verdict does not follow from rank and signature"
        witness = output["forbidden_witness"]
        if spec[0] == "gram" or rank <= 2:
            return None if witness is None else "unexpected witness"
        if witness is None or len(witness) < 4 or witness != sorted(set(witness)) or witness[-1] >= n:
            return f"malformed witness {witness}"
        sub = [[e[i][j] for j in witness] for i in witness]
        return None if _skew_rank(sub) > 2 else f"witness {witness} has rank(chi^-) <= 2"


class CohLarge(Workload):
    """cohomology on fresh surfaces of large ample divisors D, each
    coefficient within 3 of a fixed ample centre (P2: (300,0,0); P1xP1, F1,
    F3, dP6: entries between 25 and 60), and of -D except on P1xP1.
    Per surface the pool takes the seeded draws whose Euler characteristics
    match evenly spaced quantiles of a fixed reference sample
    (`matched_pick`), so its cost barely depends on the seed.

    The near-fixed shapes make each (surface, sign) a tight cluster of
    costs. A round holds one job from each cluster and two from each P2
    cluster, 11 jobs in all: the median then falls in the middle of the
    fifth cheapest cluster and the 90th percentile in the middle of the
    dearest one, not on the edge between two.
    """

    name = "coh_large"
    golden_jobs = 11
    rounds = 8
    draws = 200
    centres = {
        "P2": (300, 0, 0),
        "P1xP1": (45, 45, 45, 45),
        "F1": (40, 45, 50, 35),
        "F3": (50, 25, 60, 40),
        "dP6": (40, 40, 40, 40, 40, 40),
    }
    per_round = {"P2": 2}

    def generate(self, seed):
        rng = random.Random(seed)
        columns = []
        for name in self.centres:
            rays = BASE_FANS[name]
            count = self.per_round.get(name, 1)
            reference = self._ample_divisors(random.Random(f"coh_large reference {name}"), name)
            draws = self._ample_divisors(rng, name)
            keys = [rr_chi(rays, d) for d in draws]
            picked = matched_pick(draws, keys, [rr_chi(rays, d) for d in reference], self.rounds * count)
            columns.append([[(name, d) for d in picked[r * count : (r + 1) * count]] for r in range(self.rounds)])
        specs = []
        for row in zip(*columns):
            for name, d in itertools.chain.from_iterable(row):
                specs.append((name, d))
                if name != "P1xP1":
                    specs.append((name, tuple(-x for x in d)))
        return specs

    def _ample_divisors(self, rng, name) -> list:
        rays, centre = BASE_FANS[name], self.centres[name]
        divisors = []
        while len(divisors) < self.draws:
            d = tuple(c + rng.randint(-3, 3) if c else 0 for c in centre)
            if is_ample(rays, d):
                divisors.append(d)
        return divisors

    def run(self, spec, state):
        name, d = spec
        return list(toric.ToricSurface(BASE_FANS[name]).cohomology(d))

    def check(self, spec, output):
        name, d = spec
        rays = BASE_FANS[name]
        if name == "P2":
            k = d[0]
            expected = [math.comb(k + 2, 2), 0, 0] if k >= 0 else [0, 0, math.comb(-k - 1, 2)]
        elif name == "P1xP1":
            expected = list(oracles.kunneth_quadric(d[0] + d[2], d[1] + d[3]))
        elif d[0] > 0:
            expected = [rr_chi(rays, d), 0, 0]  # ample: higher cohomology vanishes
        else:
            expected = [0, 0, rr_chi(rays, d)]  # anti-ample: Serre dual of the above
        return None if output == expected else f"h = {output}, expected {expected}"


WORKLOADS = {w.name: w for w in (Reproduce(), Search(), Obstruct(), CohLarge())}
