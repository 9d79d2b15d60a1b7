import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quivsurf.cli import main
from quivsurf.linalg import ExactMatrix
from quivsurf.quivers import Quiver, obstruction_report
from quivsurf.toric import ConsistencyError, ToricSurface, blowup_p2, preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_obstruct_a4_quiver(tmp_path, capsys):
    path = write_json(
        tmp_path, "a4.json", {"vertices": 4, "arrows": [[0, 1], [1, 2], [2, 3]]}
    )
    code, out, _ = run_cli(capsys, "obstruct", path)
    report = json.loads(out)
    assert code == 1
    assert report["result"]["rank_chi_minus"] == 4
    assert report["result"]["passes_rank"] is False
    assert report["result"]["forbidden_witness"] == [0, 1, 2, 3]


def test_obstruct_five_vertex_gram(tmp_path, capsys):
    gram = [
        [1, 2, 4, 3, 0],
        [0, 1, 4, 5, 2],
        [0, 0, 1, 4, 4],
        [0, 0, 0, 1, 3],
        [0, 0, 0, 0, 1],
    ]
    path = write_json(tmp_path, "gram.json", {"gram": gram})
    code, out, _ = run_cli(capsys, "obstruct", path)
    report = json.loads(out)
    assert code == 1
    assert report["result"]["passes_rank"] is True
    assert report["result"]["passes_signature"] is False


def test_obstruct_rejects_non_unimodular_gram(tmp_path, capsys):
    path = write_json(tmp_path, "gram.json", {"gram": [[2, 0], [0, 5]]})
    code, out, err = run_cli(capsys, "obstruct", path)
    assert (code, out) == (2, "")
    assert "unimodular" in err and "determinant is 10" in err


@pytest.mark.parametrize(
    "arrows, expected_code", [([[0, 1], [0, 1]], 0), ([[0, 1], [1, 2], [2, 3]], 1)]
)
def test_closed_stdout_keeps_exit_code_without_traceback(tmp_path, arrows, expected_code):
    vertices = max(max(a) for a in arrows) + 1
    path = write_json(tmp_path, "q.json", {"vertices": vertices, "arrows": arrows})
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quivsurf", "obstruct", path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected_code
    assert proc.stderr == b""


def test_obstruct_a2_tilde_passes(tmp_path, capsys):
    path = write_json(
        tmp_path, "a2t.json", {"vertices": 3, "arrows": [[0, 1], [1, 2], [0, 2]]}
    )
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_obstruct_rejects_cyclic_quiver(tmp_path, capsys):
    path = write_json(tmp_path, "cyc.json", {"vertices": 2, "arrows": [[0, 1], [1, 0]]})
    code, _, err = run_cli(capsys, "obstruct", path)
    assert code == 2
    assert "cycle" in err


def test_obstruct_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "obstruct", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_toric_coh_preset(capsys):
    code, out, _ = run_cli(capsys, "toric", "coh", "dP6", "-d", '{"pic": [0, 0, 0, 1]}')
    report = json.loads(out)
    assert code == 0
    assert report["result"]["h"] == [1, 0, 0]
    assert report["result"]["chi"] == 1


def test_toric_knum_preset(capsys):
    code, out, _ = run_cli(capsys, "toric", "knum", "dP6")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["rank_chi_minus"] == 2
    assert report["result"]["signature_chi_plus"] == [4, 2, 0]


def test_toric_knum_from_file(tmp_path, capsys):
    path = write_json(tmp_path, "p2.json", {"rays": [[1, 0], [0, 1], [-1, -1]]})
    code, out, _ = run_cli(capsys, "toric", "knum", path)
    assert code == 0
    assert json.loads(out)["result"]["rank_chi_minus"] == 2


def test_toric_rejects_singular_fan(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"rays": [[1, 0], [-1, 2], [0, -1]]})
    code, _, err = run_cli(capsys, "toric", "knum", path)
    assert code == 2
    assert "determinant" in err


def test_toric_coh_requires_divisor(capsys):
    code, _, err = run_cli(capsys, "toric", "coh", "P2")
    assert code == 2
    assert "divisor" in err


def test_verify_collection(tmp_path, capsys):
    payload = {
        "fan": {"rays": [[1, 0], [0, 1], [-1, 0], [-1, -1], [0, -1]]},
        "objects": [
            {"line": [0, 0, 0, 0, 0]},
            {"line_pic": [1, 0, -1]},
            {"line_pic": [1, 0, 0]},
        ],
    }
    path = write_json(tmp_path, "coll.json", payload)
    code, out, _ = run_cli(capsys, "verify", path, "--strong")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["ok"] is True
    assert report["result"]["abc"] == [1, 1, 1]


def test_verify_failure_exit_code(tmp_path, capsys):
    payload = {
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]]},
        "objects": [{"line": [0, 0, 0]}, {"line": [-1, 0, 0]}],
    }
    path = write_json(tmp_path, "bad_coll.json", payload)
    code, out, _ = run_cli(capsys, "verify", path, "--strong")
    report = json.loads(out)
    assert code == 1
    assert report["result"]["failure"]["reason"] == "backward"


def test_search_includes_table_pair(capsys):
    code, out, _ = run_cli(capsys, "search", "dP6", "1", "3", "1", "--bound", "2")
    report = json.loads(out)
    assert code == 0
    assert [[0, 0, 0, 1], [1, 1, 1, 1]] in report["result"]["pairs"]


def test_search_diagnostic(capsys):
    code, out, _ = run_cli(capsys, "search", "P1xP1", "3", "2", "0", "--bound", "1")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["pairs"] == []
    assert "a+b" in report["result"]["diagnostic"]


def test_solve_abc(capsys):
    code, out, _ = run_cli(capsys, "solve-abc", "--max", "4")
    report = json.loads(out)
    assert code == 0
    sols = {tuple(t) for t in report["result"]["solutions"]}
    expected = set()
    for n in range(5):
        expected |= {(0, n, n), (n, 0, n), (1, n, 1), (n, 1, 1)}
    expected.add((2, 2, 0))
    assert sols == expected


def test_reproduce_small(capsys):
    code, out, err = run_cli(capsys, "reproduce", "--m-max", "1")
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert "dynkin_euclidean_classification: PASS" in err


def test_byte_identical_output(capsys):
    _, first, _ = run_cli(capsys, "toric", "knum", "dP6")
    _, second, _ = run_cli(capsys, "toric", "knum", "dP6")
    assert first == second


# sha256 of the `reproduce --m-max 5` report at the default seed 7: the
# behavioural fixed point that refactors must keep byte for byte.
REPRODUCE_M5_SHA256 = "960c366eaeb3704e8117a74fa44d3490a149a00a285e52a7506577a0e9c2233b"


def test_reproduce_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--m-max", "5")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPRODUCE_M5_SHA256


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"vertices": 2, "arrows": [[0, 1]]}))
    )
    code, out, _ = run_cli(capsys, "obstruct", "-")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "obstruct", "/nonexistent/q.json")
    assert code == 2
    assert "no such file" in err


# --- strict inputs and exit codes -------------------------------------------

P2_FAN = {"rays": [[1, 0], [0, 1], [-1, -1]]}


@pytest.mark.parametrize(
    "divisor",
    ["[1.7, true, 0]", "[1, 0, true]", "[1.0, 0, 0]", '[1, "1", 0]', '{"pic": [false]}', '{"pic": "1"}'],
)
def test_toric_coh_rejects_non_integer_divisor(capsys, divisor):
    code, out, err = run_cli(capsys, "toric", "coh", "P2", "-d", divisor)
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize(
    "command, payload",
    [
        (("toric", "knum"), {"rays": [[1, 0], [0, 1.0], [-1, -1]]}),
        (("toric", "knum"), {"rays": [[1, 0], [0, True], [-1, -1]]}),
        (("obstruct",), {"vertices": 2.9, "arrows": [[0, 1]]}),
        (("obstruct",), {"vertices": 2, "arrows": [[0, 1.7]]}),
        (("obstruct",), {"vertices": 2, "arrows": [[False, 1]]}),
        (("obstruct",), {"vertices": 2, "arrows": ["01"]}),
        (("obstruct",), {"gram": [[1, 0], [True, 1]]}),
        (("obstruct",), {"gram": [[1, 0.5], [0, 1]]}),
        (("verify",), {"fan": {"rays": [[1, 0], [0, 1.5], [-1, -1]]}, "objects": [{"line": [0, 0, 0]}]}),
        (("verify",), {"fan": P2_FAN, "objects": [{"line": [0, 0, 0.5]}]}),
        (("verify",), {"fan": P2_FAN, "objects": [{"line": 0}]}),
        (("verify",), {"fan": P2_FAN, "objects": [{"line_pic": ["1"]}]}),
        (("verify",), {"fan": P2_FAN, "objects": [{"line": [0, 0, 0]}, {"curve_ray": True}]}),
        (("verify",), {"fan": P2_FAN, "objects": 5}),
        (("verify",), {"fan": P2_FAN, "objects": None}),
    ],
)
def test_json_readers_reject_non_integers(tmp_path, capsys, command, payload):
    path = write_json(tmp_path, "input.json", payload)
    code, out, err = run_cli(capsys, *command, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_negative_bounds_are_input_errors(capsys):
    code, out, err = run_cli(capsys, "search", "dP6", "1", "3", "1", "--bound", "-1")
    assert (code, out) == (2, "")
    assert "nonnegative" in err
    code, out, err = run_cli(capsys, "solve-abc", "--max", "-3")
    assert (code, out) == (2, "")
    assert "nonnegative" in err
    code, out, err = run_cli(capsys, "search", "P2", "-1", "0", "-1")
    assert (code, out) == (2, "")
    assert "nonnegative" in err


def test_toric_knum_rejects_divisor(capsys):
    code, out, err = run_cli(capsys, "toric", "knum", "P2", "-d", "[1,0,0]")
    assert (code, out) == (2, "")
    assert "knum takes no divisor" in err


def test_deeply_nested_json_is_an_internal_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run_cli(capsys, "obstruct", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("internal error: RecursionError")
    assert err.count("\n") == 1


def test_consistency_error_is_an_internal_error(capsys, monkeypatch):
    def broken(self, d):
        raise ConsistencyError("Riemann-Roch parity failed")

    monkeypatch.setattr(ToricSurface, "cohomology", broken)
    code, out, err = run_cli(capsys, "toric", "coh", "P2", "-d", "[1, 0, 0]")
    assert (code, out) == (3, "")
    assert err == "internal error: ConsistencyError: Riemann-Roch parity failed\n"


def test_obstruct_limits_quiver_json_vertices(tmp_path, capsys):
    path = write_json(tmp_path, "big.json", {"vertices": 101, "arrows": []})
    code, out, err = run_cli(capsys, "obstruct", path)
    assert (code, out) == (2, "")
    assert "limited to 100 vertices" in err
    path = write_json(tmp_path, "edge.json", {"vertices": 100, "arrows": [[0, 99]]})
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0 and json.loads(out)["result"]["rank_chi_minus"] == 2


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    for argv in (
        ("obstruct", str(tmp_path)),
        ("verify", str(tmp_path)),
        ("toric", "coh", str(tmp_path), "-d", "[1, 0, 0]"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {tmp_path}")


def test_obstruct_rejects_quiver_and_gram_together(tmp_path, capsys):
    for payload in (
        {"gram": [[1, 0], [0, 1]], "vertices": 2},
        {"gram": [[1, 0], [0, 1]], "vertices": 2, "arrows": [[0, 1]]},
        {"gram": [[1, 0], [0, 1]], "arrows": []},
    ):
        code, out, err = run_cli(capsys, "obstruct", write_json(tmp_path, "both.json", payload))
        assert (code, out) == (2, "")
        assert "exactly one of" in err


def test_verify_reports_abc_for_a_mixed_collection(tmp_path, capsys):
    # (O, O_{C_0}, O_{C_3}) on dP6: C_0 and C_3 are disjoint, so the quiver
    # has one arrow 0 -> 1, none 1 -> 2 and one 0 -> 2
    payload = {
        "fan": {"rays": [list(r) for r in preset("dP6").rays]},
        "objects": [{"line": [0] * 6}, {"curve_ray": 0}, {"curve_ray": 3}],
    }
    code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "mixed.json", payload), "--strong")
    result = json.loads(out)["result"]
    assert code == 0
    assert result["ok"] is True
    assert result["abc"] == [1, 0, 1]


# --- JSON readers, through the CLI --------------------------------------------

DP5_FAN = {"rays": [[1, 0], [0, 1], [-1, 0], [-1, -1], [0, -1]]}


def assert_input_error(capsys, *argv, message="error: "):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_fan_json_roundtrip(tmp_path, capsys):
    s = blowup_p2(3)
    rays = [list(r) for r in reversed(s.rays)]
    code, out, _ = run_cli(capsys, "toric", "knum", write_json(tmp_path, "fan.json", {"rays": rays}))
    assert code == 0
    assert json.loads(out)["result"]["rays"] == [list(r) for r in s.rays]
    assert_input_error(
        capsys, "toric", "knum", write_json(tmp_path, "bad.json", {"ray": rays}), message="'rays'"
    )


def test_divisor_json(capsys):
    s = blowup_p2(3)
    for divisor, expected in (
        ("[0, 0, 0, 1, 0, 0]", s.ray_divisor(3)),
        ('{"pic": [0, 0, 0, 1]}', s.lift_pic((0, 0, 0, 1))),
    ):
        code, out, _ = run_cli(capsys, "toric", "coh", "dP6", "-d", divisor)
        assert code == 0
        assert json.loads(out)["result"]["divisor"] == list(expected)
    assert_input_error(capsys, "toric", "coh", "dP6", "-d", '{"pic": [0], "extra": 1}')
    assert_input_error(capsys, "toric", "coh", "dP6", "-d", '"nope"')


def test_collection_json(tmp_path, capsys):
    payload = {
        "fan": DP5_FAN,
        "objects": [
            {"line": [0, 0, 0, 0, 0]},
            {"line_pic": [1, 0, -1]},
            {"line": [1, 0, 0, 0, 0]},
        ],
    }
    code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "coll.json", payload), "--strong")
    result = json.loads(out)["result"]
    assert code == 0
    assert result["ok"] is True
    assert result["abc"] == [1, 1, 1]
    for bad in ({"fan": DP5_FAN, "objects": [{"mystery": 1}]}, {"objects": []}):
        assert_input_error(capsys, "verify", write_json(tmp_path, "bad.json", bad))


def test_collection_with_curve_from_json(tmp_path, capsys):
    s = blowup_p2(1)
    e_ray = s.self_intersections.index(-1)
    payload = {
        "fan": {"rays": [list(r) for r in s.rays]},
        "objects": [{"line": [0] * s.n_rays}, {"curve_ray": e_ray}],
    }
    code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "coll.json", payload), "--strong")
    assert code == 0
    assert json.loads(out)["result"]["ok"] is True


def assert_obstruct_reads(capsys, path, source):
    """`obstruct path` reports what obstruction_report gives for source."""
    expected = obstruction_report(source)
    code, out, _ = run_cli(capsys, "obstruct", path)
    result = json.loads(out)["result"]
    assert code == (0 if expected.passes else 1)
    assert result["rank_chi_minus"] == expected.rank_chi_minus
    assert result["signature_chi_plus"] == list(expected.signature_chi_plus)


def test_quiver_json_roundtrip(tmp_path, capsys):
    q = Quiver(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    payload = {"vertices": q.vertices, "arrows": [list(a) for a in q.arrows]}
    assert_obstruct_reads(capsys, write_json(tmp_path, "q.json", payload), q)
    for bad, message in (
        ({"vertices": 2}, "'arrows'"),
        ({"vertices": 2, "arrows": [[0, 1], [1, 0]]}, "cycle"),
        ({"vertices": 3, "arrows": [[0, 1, 2]]}, "error: "),
    ):
        assert_input_error(capsys, "obstruct", write_json(tmp_path, "bad.json", bad), message=message)


def test_gram_json(tmp_path, capsys):
    for rows in ([[1, 2], [0, 1]], [[0, 1], [1, 0]]):
        path = write_json(tmp_path, "gram.json", {"gram": rows})
        assert_obstruct_reads(capsys, path, ExactMatrix.from_rows(rows))
    for rows, message in (
        ([[1, 2, 3], [0, 1, 0]], "square"),
        ([[2, 0], [0, 5]], "unimodular, but its determinant is 10"),
        ([[1, 2], [2, 4]], "unimodular, but its determinant is 0"),
    ):
        path = write_json(tmp_path, "bad.json", {"gram": rows})
        assert_input_error(capsys, "obstruct", path, message=message)
