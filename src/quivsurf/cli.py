"""Command-line interface: the one place that reads and writes JSON.

The library modules take and return plain Python values; this module
parses every input into them and writes every report.

Exit codes: 0 success (and, for verifying commands, all checks passed);
1 a verification gave a negative verdict; 2 malformed or invalid input,
including JSON numbers that are not plain integers, negative bounds,
negative search arrow counts, a divisor given to toric knum, an input
file that cannot be read (a directory, say), obstruct input with both
a quiver and a Gram matrix, and quiver JSON with more than
cli.JSON_VERTEX_BOUND = 100 vertices;
3 an internal error (a failed exact identity, or input nested too deeply
to read), reported as one line on stderr and never as a verdict.
verify --strong also reports the quiver data abc of every strong 3-object
collection, whether its objects are line bundles, curve sheaves or both.
Reports are printed to stdout with sorted keys, so identical inputs give
byte-identical output; diagnostics go to stderr. A closed stdout loses the
report but neither prints a traceback nor changes the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .linalg import ExactMatrix, det_rational
from .quivers import Quiver, obstruction_report
from .toric import ConsistencyError, FanError, PRESETS, ToricSurface, preset
from .exceptional import (
    Collection,
    CurveSheaf,
    LineBundle,
    abc_of,
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


class InputError(Exception):
    pass


# Largest quiver read from JSON: a vertex count is a few bytes of input but
# costs an n x n exact Euler form. The Quiver constructor itself is unbounded.
JSON_VERTEX_BOUND = 100

_SHAPES = ("an integer", "a list of integers", "a list of integer lists")


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}")


def _field(data, key: str, kind: str):
    """data[key], where data must be a JSON object with that key; kind names
    the object in the message."""
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"{kind} JSON must be an object with the key {key!r}")
    return data[key]


def _ints(value, what: str, depth: int = 1):
    """value read exactly as a plain JSON integer (depth 0), a list of them
    (depth 1) or a list of such lists (depth 2): true, 1.0 and "1" are
    rejected rather than converted."""
    shaped = type(value) is int if depth == 0 else isinstance(value, list)
    if not shaped:
        raise InputError(f"{what}: expected {_SHAPES[depth]}, got {value!r}")
    if depth:
        for x in value:
            _ints(x, what, depth - 1)
    return value


def _read_fan(data) -> ToricSurface:
    rays = _ints(_field(data, "rays", "fan"), "fan rays", 2)
    return ToricSurface(rays)


def _read_quiver(data) -> Quiver:
    vertices = _ints(_field(data, "vertices", "quiver"), "quiver vertices", 0)
    arrows = _ints(_field(data, "arrows", "quiver"), "quiver arrows", 2)
    if vertices > JSON_VERTEX_BOUND:
        raise InputError(f"quiver JSON is limited to {JSON_VERTEX_BOUND} vertices, got {vertices}")
    if any(len(a) != 2 for a in arrows):
        raise InputError("quiver arrows must be [source, target] pairs")
    return Quiver(vertices, arrows)


def _read_gram(data) -> ExactMatrix:
    m = ExactMatrix.from_rows(_ints(_field(data, "gram", "Gram-matrix"), "Gram matrix", 2))
    if not m.is_square:
        raise InputError("Gram matrix must be square")
    det = det_rational(m)
    if det not in (1, -1):
        raise InputError(f"Gram matrix must be unimodular, but its determinant is {det}")
    return m


def _read_divisor(surface: ToricSurface, data):
    """A coefficient list in ray order, or {"pic": [...]} in Picard-basis
    coordinates."""
    if isinstance(data, dict):
        if set(data) != {"pic"}:
            raise InputError("divisor object must have exactly the key 'pic'")
        return surface.lift_pic(_ints(data["pic"], "divisor 'pic'"))
    return _ints(data, "divisor")


def _read_collection(data) -> Collection:
    surface = _read_fan(_field(data, "fan", "collection"))
    entries = _field(data, "objects", "collection")
    if not isinstance(entries, list):
        raise InputError(f"collection 'objects' must be a list, got {entries!r}")
    objects = []
    for entry in entries:
        if not isinstance(entry, dict) or len(entry) != 1:
            raise InputError(f"collection object must have exactly one key: {entry!r}")
        (kind, value), = entry.items()
        if kind == "curve_ray":
            objects.append(CurveSheaf(_ints(value, "curve ray", 0)))
        elif kind in ("line", "line_pic"):
            coeffs = _ints(value, f"collection {kind!r}")
            objects.append(LineBundle(surface.lift_pic(coeffs) if kind == "line_pic" else coeffs))
        else:
            raise InputError(f"unknown collection object kind {kind!r}")
    return Collection(surface, tuple(objects))


def _load_fan(arg: str) -> ToricSurface:
    """A fan file, '-' for stdin, or a named preset."""
    if arg != "-" and not Path(arg).exists() and arg in PRESETS:
        return preset(arg)
    return _read_fan(_load_json(arg))


def _report(command: str, payload: dict, ok: bool = True) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "result": payload,
        "pass": ok,
    }


def _emit(report: dict) -> None:
    try:
        print(json.dumps(report, sort_keys=True, indent=2), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): point stdout at devnull
        # so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_obstruct(args) -> int:
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    if ("gram" in data) == ("vertices" in data or "arrows" in data):
        raise InputError("input must contain exactly one of a quiver ('vertices'/'arrows') and 'gram'")
    report = obstruction_report(_read_gram(data) if "gram" in data else _read_quiver(data))
    witness = report.forbidden_witness
    payload = {
        "rank_chi_minus": report.rank_chi_minus,
        "signature_chi_plus": list(report.signature_chi_plus),
        "passes_rank": report.passes_rank,
        "passes_signature": report.passes_signature,
        "passes": report.passes,
        "forbidden_witness": None if witness is None else list(witness),
    }
    _emit(_report("obstruct", payload, ok=report.passes))
    return EXIT_OK if report.passes else EXIT_VERIFY_FAILED


def cmd_toric(args) -> int:
    if args.subcommand == "knum" and args.divisor is not None:
        raise InputError("toric knum takes no divisor (-d)")
    surface = _load_fan(args.fan)
    if args.subcommand == "coh":
        if args.divisor is None:
            raise InputError("toric coh needs a divisor (-d)")
        try:
            raw_divisor = json.loads(args.divisor)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid divisor JSON: {exc}")
        divisor = _read_divisor(surface, raw_divisor)
        coh = surface.cohomology(divisor)
        payload = {
            "rays": [list(r) for r in surface.rays],
            "divisor": list(divisor),
            "h": list(coh),
            "chi": surface.rr_chi(divisor),
        }
        _emit(_report("toric coh", payload))
        return EXIT_OK
    gram = surface.knum_gram()
    report = obstruction_report(gram)
    payload = {
        "rays": [list(r) for r in surface.rays],
        "picard_rank": surface.picard_rank,
        "basis": ["point"]
        + [f"curve_ray_{i}" for i in range(surface.picard_rank)]
        + ["structure_sheaf"],
        "gram": gram.int_rows(),
        "rank_chi_minus": report.rank_chi_minus,
        "signature_chi_plus": list(report.signature_chi_plus),
    }
    _emit(_report("toric knum", payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    data = _load_json(args.input)
    collection = _read_collection(data)
    result = verify_collection(collection, strong=args.strong)
    payload = {
        "objects": len(collection),
        "strong": args.strong,
        "ok": result.ok,
        "hom": [[list(t) for t in row] for row in result.hom],
    }
    if result.failure is not None:
        payload["failure"] = {
            "i": result.failure.i,
            "j": result.failure.j,
            "ext": list(result.failure.ext),
            "reason": result.failure.reason,
            "detail": result.failure.describe(),
        }
    if result.ok and args.strong and len(collection) == 3:
        try:
            payload["abc"] = list(abc_of(collection))
        except ValueError as exc:
            payload["abc_error"] = str(exc)
    _emit(_report("verify", payload, ok=result.ok))
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


def cmd_search(args) -> int:
    surface = _load_fan(args.fan)
    outcome = search_abc(surface, args.a, args.b, args.c, bound=args.bound)
    payload = {
        "triple": list(outcome.triple),
        "bound": args.bound,
        "pairs": [[list(d), list(e)] for d, e in outcome.pairs],
        "count": len(outcome.pairs),
    }
    if outcome.diagnostic:
        payload["diagnostic"] = outcome.diagnostic
    _emit(_report("search", payload))
    return EXIT_OK


def cmd_solve_abc(args) -> int:
    payload = {
        "max": args.max,
        "solutions": [list(t) for t in solve_abc(args.max)],
    }
    _emit(_report("solve-abc", payload))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    report = run_all(m_max=args.m_max, seed=args.seed)
    for name, ok in report["summary"].items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    _emit(_report("reproduce", report, ok=report["pass"]))
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ConsistencyError, RecursionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
