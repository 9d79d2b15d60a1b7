"""Command-line interface: the one place that reads and writes JSON.

The library modules take and return plain Python values; this module
parses every input into them and writes every report.

Exit codes: 0 success (and, for verifying commands, all checks passed);
1 a verification gave a negative verdict; 2 malformed or invalid input,
including JSON numbers that are not plain integers, negative bounds,
negative search arrow counts, a divisor given to toric knum, an input file
that cannot be read (a directory, say, or '-' with standard input closed),
obstruct input with both a quiver and a Gram matrix, quiver JSON with more
than cli.JSON_VERTEX_BOUND = 100 vertices, Gram JSON with more than 100
rows, collection JSON with more than 100 objects or fan JSON with more
than 100 rays (the same bound), Gram JSON with an entry above
cli.GRAM_ENTRY_BOUND = 999999 in absolute value, a search box of more than
cli.SEARCH_BOX_BOUND = 10000 Picard vectors, a toric coh divisor, a verify
collection or a search box whose lattice counts would test more than
cli.LATTICE_TEST_BOUND = 3200000 ray inequalities (box points times rays,
over D and K - D for toric coh and for every vector of the search box, and
over every difference of two line bundles for verify), solve-abc --max
above cli.SOLVE_ABC_BOUND = 10000, and reproduce --m-max above
cli.REPRODUCE_M_MAX_BOUND = 40;
3 an internal error (any exception other than an input error: a failed
exact identity, input nested too deeply to read, a bug; or a report that
could not be written), reported as one line on stderr and never as a
verdict.
verify --strong also reports the quiver data abc of every strong 3-object
collection, whether its objects are line bundles, curve sheaves or both.
Reports are printed to stdout with sorted keys, so identical inputs give
byte-identical output; diagnostics go to stderr, best effort. A closed
stdout pipe loses the report but neither prints a traceback nor changes the
exit code; a full stdout exits 3; a closed or full stderr changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .linalg import _echelon, _square_ints
from .quivers import Quiver, obstruction_report
from .toric import PRESETS, ToricSurface, preset
from .exceptional import (
    Collection,
    CurveSheaf,
    LineBundle,
    _abc,
    _ext_lattice_tests,
    search_abc,
    solve_abc,
    verify_collection,
)
from .reproduce import DEFAULT_SEED, run_all

SCHEMA = "quivsurf.report/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


# Most quiver vertices, Gram rows, collection objects or fan rays read from
# JSON: n of them are a few bytes of input but cost an n x n table (an exact
# Euler form, an elimination, a Hom/Ext table; toric knum took 0.26 s on 100
# rays and 1.3 s on 200). The library constructors are unbounded.
JSON_VERTEX_BOUND = 100
# Largest absolute value of a Gram JSON entry: a 100-row unitriangular Gram of
# random-sign 6-digit entries took 1.5 s (median of 5 runs), of 20-digit 10.7 s.
GRAM_ENTRY_BOUND = 999999
# Most ray inequalities (box points times rays) that toric coh (over D and
# K - D), verify (over every difference of two line bundles) and search (over
# D and K - D of every vector of its box) may test, about one second of work:
# P2 with D = (N, 0, 0) tests 3 (N + 1)^2, 3,195,072 at N = 1031 in 0.9 s of
# toric coh, and search dP6 1 1 1 --bound 4 tests 3,185,460 in 0.9-1.2 s.
LATTICE_TEST_BOUND = 3200000
# Largest solve-abc --max: the report lists about 4 * max triples.
SOLVE_ABC_BOUND = 10000
# Most Picard vectors in a search box (2 * bound + 1)^rho: 6,561 on dP6
# (--bound 4) take about 1 s, 14,641 (--bound 5) about 3 s. The lattice-test
# charge cannot see the other work of each vector (one with entries in
# {-1, 0} scans nothing), and computing it walks the whole box.
SEARCH_BOX_BOUND = 10000
# Largest reproduce --m-max: the divisor table grows about as m^2.5, from
# about 0.75 s at 40 to 2.8 s at 80.
REPRODUCE_M_MAX_BOUND = 40

_SHAPES = ("an integer", "a list of integers", "a list of integer lists")


def _load_json(path: str):
    if path == "-" and sys.stdin is None:  # fd 0 was closed before Python started
        raise ValueError("cannot read -: standard input is closed")
    try:
        if path == "-":
            return json.load(sys.stdin)
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")


def _field(data, key: str, kind: str):
    """data[key], where data must be a JSON object with that key; kind names
    the object in the message."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{kind} JSON must be an object with the key {key!r}")
    return data[key]


def _ints(value, what: str, depth: int = 1):
    """value read exactly as a plain JSON integer (depth 0), a list of them
    (depth 1) or a list of such lists (depth 2): true, 1.0 and "1" are
    rejected rather than converted."""
    shaped = type(value) is int if depth == 0 else isinstance(value, list)
    if not shaped:
        raise ValueError(f"{what}: expected {_SHAPES[depth]}, got {value!r}")
    if depth:
        for x in value:
            _ints(x, what, depth - 1)
    return value


def _at_most(count: int, bound: int, what: str, unit: str = "") -> None:
    if count > bound:
        raise ValueError(f"{what} is limited to {bound}{unit and ' ' + unit}, got {count}")


def _read_fan(data) -> ToricSurface:
    rays = _ints(_field(data, "rays", "fan"), "fan rays", 2)
    _at_most(len(rays), JSON_VERTEX_BOUND, "fan JSON", "rays")
    return ToricSurface(rays)


def _read_quiver(data) -> Quiver:
    vertices = _ints(_field(data, "vertices", "quiver"), "quiver vertices", 0)
    arrows = _ints(_field(data, "arrows", "quiver"), "quiver arrows", 2)
    _at_most(vertices, JSON_VERTEX_BOUND, "quiver JSON", "vertices")
    return Quiver(vertices, arrows)


def _read_gram(data) -> list:
    rows = _ints(_field(data, "gram", "Gram-matrix"), "Gram matrix", 2)
    _at_most(len(rows), JSON_VERTEX_BOUND, "Gram JSON", "rows")
    rows = _square_ints(rows, "Gram matrix")
    big = next((x for row in rows for x in row if abs(x) > GRAM_ENTRY_BOUND), None)
    if big is not None:
        raise ValueError(f"Gram matrix entry is limited to {GRAM_ENTRY_BOUND} in absolute value, got {big}")
    det = _echelon([list(row) for row in rows])[1]
    if det not in (1, -1):
        raise ValueError(f"Gram matrix must be unimodular, but its determinant is {det}")
    return rows


def _read_divisor(surface: ToricSurface, data):
    """A coefficient list in ray order, or {"pic": [...]} in Picard-basis
    coordinates."""
    if isinstance(data, dict):
        if set(data) != {"pic"}:
            raise ValueError("divisor object must have exactly the key 'pic'")
        return surface.lift_pic(_ints(data["pic"], "divisor 'pic'"))
    return _ints(data, "divisor")


def _read_collection(data) -> Collection:
    surface = _read_fan(_field(data, "fan", "collection"))
    entries = _field(data, "objects", "collection")
    if not isinstance(entries, list):
        raise ValueError(f"collection 'objects' must be a list, got {entries!r}")
    _at_most(len(entries), JSON_VERTEX_BOUND, "collection JSON", "objects")
    objects = []
    for entry in entries:
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ValueError(f"collection object must have exactly one key: {entry!r}")
        (kind, value), = entry.items()
        if kind == "curve_ray":
            objects.append(CurveSheaf(_ints(value, "curve ray", 0)))
        elif kind in ("line", "line_pic"):
            coeffs = _ints(value, f"collection {kind!r}")
            objects.append(LineBundle(surface.lift_pic(coeffs) if kind == "line_pic" else coeffs))
        else:
            raise ValueError(f"unknown collection object kind {kind!r}")
    return Collection(surface, tuple(objects))


def _load_fan(arg: str) -> ToricSurface:
    """A fan file, '-' for stdin, or a named preset."""
    if arg != "-" and not Path(arg).exists() and arg in PRESETS:
        return preset(arg)
    return _read_fan(_load_json(arg))


def _write(stream, text: str) -> OSError | None:
    """Write and flush text; the OSError of a failed write, else None. A
    failed write (a closed pipe, a full disk) points the stream's descriptor
    at devnull, so that no later write nor the flush at exit can raise."""
    if stream is None:  # the descriptor was closed before Python started
        return None
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc


def cmd_obstruct(args) -> tuple:
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    if ("gram" in data) == ("vertices" in data or "arrows" in data):
        raise ValueError("input must contain exactly one of a quiver ('vertices'/'arrows') and 'gram'")
    report = obstruction_report(_read_gram(data) if "gram" in data else _read_quiver(data))
    return {**report._asdict(), "passes": report.passes}, report.passes


def _limit_lattice_tests(command: str, what: str, tests: int) -> None:
    if tests > LATTICE_TEST_BOUND:
        raise ValueError(
            f"{command} would test {tests} lattice inequalities for {what}; "
            f"the limit is {LATTICE_TEST_BOUND}"
        )


def cmd_toric(args) -> tuple:
    if args.subcommand == "knum" and args.divisor is not None:
        raise ValueError("toric knum takes no divisor (-d)")
    surface = _load_fan(args.fan)
    if args.subcommand == "coh":
        if args.divisor is None:
            raise ValueError("toric coh needs a divisor (-d)")
        try:
            raw_divisor = json.loads(args.divisor)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid divisor JSON: {exc}")
        divisor = surface._check_divisor(_read_divisor(surface, raw_divisor))
        _limit_lattice_tests("toric coh", "D and K - D", surface._coh_lattice_tests(divisor))
        h, chi = surface._coh(divisor), surface._chi(divisor)
        return {"rays": surface.rays, "divisor": divisor, "h": h, "chi": chi}, True
    gram = surface.knum_gram()
    report = obstruction_report(gram)
    payload = {
        "rays": surface.rays,
        "picard_rank": surface.picard_rank,
        "basis": ["point"]
        + [f"curve_ray_{i}" for i in range(surface.picard_rank)]
        + ["structure_sheaf"],
        "gram": gram,
        "rank_chi_minus": report.rank_chi_minus,
        "signature_chi_plus": report.signature_chi_plus,
    }
    return payload, True


def cmd_verify(args) -> tuple:
    collection = _read_collection(_load_json(args.input))
    _limit_lattice_tests("verify", "the line-bundle differences", _ext_lattice_tests(collection))
    result = verify_collection(collection, strong=args.strong)
    payload = {
        "objects": len(collection),
        "strong": args.strong,
        "ok": result.ok,
        "hom": result.hom,
    }
    if result.failure is not None:
        payload["failure"] = {**result.failure._asdict(), "detail": result.failure.describe()}
    if result.ok and args.strong and len(collection) == 3:
        try:
            payload["abc"] = _abc(result)
        except ValueError as exc:
            payload["abc_error"] = str(exc)
    return payload, result.ok


def cmd_search(args) -> tuple:
    surface = _load_fan(args.fan)
    box = (2 * args.bound + 1) ** surface.picard_rank
    if args.bound >= 0 and box > SEARCH_BOX_BOUND:
        raise ValueError(
            f"search box (2 * {args.bound} + 1)^{surface.picard_rank} has {box} points; "
            f"the limit is {SEARCH_BOX_BOUND}"
        )
    _limit_lattice_tests("search", "the box", surface._box_lattice_tests(args.bound))
    outcome = search_abc(surface, args.a, args.b, args.c, bound=args.bound)
    payload = {
        "triple": outcome.triple,
        "bound": args.bound,
        "pairs": outcome.pairs,
        "count": len(outcome.pairs),
    }
    if outcome.diagnostic:
        payload["diagnostic"] = outcome.diagnostic
    return payload, True


def cmd_solve_abc(args) -> tuple:
    _at_most(args.max, SOLVE_ABC_BOUND, "solve-abc --max")
    return {"max": args.max, "solutions": solve_abc(args.max)}, True


def cmd_reproduce(args) -> tuple:
    _at_most(args.m_max, REPRODUCE_M_MAX_BOUND, "reproduce --m-max")
    report = run_all(m_max=args.m_max, seed=args.seed)
    lines = (f"{name}: {'PASS' if ok else 'FAIL'}\n" for name, ok in report["summary"].items())
    _write(sys.stderr, "".join(lines))
    return report, report["pass"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivsurf",
        description=(
            "Obstructions for embedding quiver derived categories into "
            "derived categories of smooth projective surfaces, and strong "
            "exceptional collections of line bundles on toric surfaces."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("obstruct", help="obstruction report for a quiver or Gram matrix")
    p.add_argument("input", help="JSON file ('-' for stdin) with 'vertices'/'arrows' or 'gram'")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("toric", help="toric surface computations")
    p.add_argument("subcommand", choices=("coh", "knum"))
    p.add_argument("fan", help="fan JSON file, '-', or a preset name (e.g. dP6, P2)")
    p.add_argument(
        "-d",
        "--divisor",
        help="divisor as JSON: a coefficient list or {\"pic\": [...]}",
    )
    p.set_defaults(func=cmd_toric)

    p = sub.add_parser("verify", help="verify an ordered collection of sheaves")
    p.add_argument("input", help="collection JSON file or '-'")
    p.add_argument("--strong", action="store_true", help="require strongness")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search divisor pairs realising a 3-vertex quiver")
    p.add_argument("fan", help="fan JSON file, '-', or a preset name")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--bound", type=int, default=3, help="Picard coordinate bound")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("solve-abc", help="solutions of a + b = ab + c")
    p.add_argument("--max", type=int, default=10)
    p.set_defaults(func=cmd_solve_abc)

    p = sub.add_parser("reproduce", help="run the full verification battery")
    p.add_argument("--m-max", type=int, default=5, help="divisor-table parameter range")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for random surface checks")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    """Run one command, write its report to stdout and return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        payload, ok = args.func(args)
    except ValueError as exc:  # FanError included
        _write(sys.stderr, f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except Exception as exc:  # ConsistencyError, RecursionError, a bug
        _write(sys.stderr, f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL_ERROR
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": f"toric {args.subcommand}" if args.command == "toric" else args.command,
        "result": payload,
        "pass": ok,
    }
    failure = _write(sys.stdout, json.dumps(report, sort_keys=True, indent=2) + "\n")
    # a reader that left early (`| head`) keeps the verdict; a full disk does not
    if failure is not None and not isinstance(failure, BrokenPipeError):
        _write(sys.stderr, f"internal error: cannot write the report: {failure.strerror}\n")
        return EXIT_INTERNAL_ERROR
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
