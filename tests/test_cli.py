import errno
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quivsurf import cli, exceptional
from quivsurf.cli import main
from quivsurf.exceptional import AbcSearchResult
from quivsurf.quivers import Quiver, obstruction_report
from quivsurf.toric import PRESETS, ConsistencyError, ToricSurface, blowup_p2, preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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


OBSTRUCT_RESULTS = {
    # a failing quiver with a witness, and a Gram matrix with none
    "A5": (
        {"vertices": 5, "arrows": [[i, i + 1] for i in range(4)]},
        {"rank_chi_minus": 4, "signature_chi_plus": [5, 0, 0], "forbidden_witness": [0, 1, 2, 3]},
    ),
    "five-vertex Gram": (
        {"gram": [[1, 2, 4, 3, 0], [0, 1, 4, 5, 2], [0, 0, 1, 4, 4], [0, 0, 0, 1, 3], [0, 0, 0, 0, 1]]},
        {"rank_chi_minus": 2, "signature_chi_plus": [2, 3, 0], "forbidden_witness": None},
    ),
}


@pytest.mark.parametrize("name", OBSTRUCT_RESULTS)
def test_obstruct_report_keys(tmp_path, capsys, name):
    # the result is the ObstructionReport fields plus passes
    source, result = OBSTRUCT_RESULTS[name]
    code, out, _ = run_cli(capsys, "obstruct", write_json(tmp_path, "input.json", source))
    report = json.loads(out)
    assert code == 1
    assert sorted(report) == ["command", "pass", "result", "schema", "version"]
    assert (report["command"], report["pass"]) == ("obstruct", False)
    assert sorted(report["result"]) == [
        "forbidden_witness",
        "passes",
        "passes_rank",
        "passes_signature",
        "rank_chi_minus",
        "signature_chi_plus",
    ]
    assert report["result"].items() >= result.items()
    assert report["result"]["passes"] is False


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
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quivsurf", "obstruct", path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected_code
    assert proc.stderr == b""


class FailingStream:
    """A text stream on its own descriptor whose every write raises error."""

    def __init__(self, path, error):
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        self.error = error

    def write(self, text):
        raise self.error

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv, verdict", [(["solve-abc", "--max", "1"], 0), (["obstruct", "a5.json"], 1)])
def test_unwritable_report_is_an_internal_error(tmp_path, capsys, monkeypatch, argv, verdict):
    # a full disk exits 3 with one line, never the verdict; a reader that
    # left early (a broken pipe) drops the report and keeps the verdict
    write_json(tmp_path, "a5.json", COMMAND_INPUTS["a5.json"])
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    full = OSError(errno.ENOSPC, "No space left on device")
    for error, code, message in (
        (full, 3, "internal error: cannot write the report: No space left on device\n"),
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), verdict, ""),
    ):
        stream = FailingStream(tmp_path / "stdout", error)
        monkeypatch.setattr("sys.stdout", stream)
        try:
            assert run_cli(capsys, *argv)[::2] == (code, message)
            os.write(stream.fd, b"late")  # the descriptor now points at devnull
        finally:
            os.close(stream.fd)
        assert (tmp_path / "stdout").read_bytes() == b""


@pytest.mark.parametrize("argv, code", [(["obstruct", "missing.json"], 2), (["reproduce", "--m-max", "1"], 0)])
def test_unwritable_stderr_keeps_exit_code_and_report(tmp_path, capsys, monkeypatch, argv, code):
    # the error line and the per-item lines are lost; the code and report are not
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    stream = FailingStream(tmp_path / "stderr", OSError(errno.EBADF, "Bad file descriptor"))
    monkeypatch.setattr("sys.stderr", stream)
    try:
        got, out = main(argv), capsys.readouterr().out
    finally:
        os.close(stream.fd)
    assert got == code
    if code == 2:
        assert out == ""
    else:
        assert json.loads(out)["pass"] is True


def test_report_on_a_full_device_exits_3():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "quivsurf", "solve-abc", "--max", "1"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
            timeout=60,
        )
    assert proc.returncode == 3
    assert proc.stderr == b"internal error: cannot write the report: No space left on device\n"


@pytest.mark.parametrize("argv, code", [(["obstruct", "missing.json"], 2), (["reproduce", "--m-max", "1"], 0)])
def test_closed_stderr_keeps_exit_code_and_report(tmp_path, argv, code):
    command = shlex.join([sys.executable, "-m", "quivsurf", *argv]) + " 2>&-"
    proc = subprocess.run(
        ["sh", "-c", command], cwd=tmp_path, stdout=subprocess.PIPE, env=subprocess_env(), timeout=60
    )
    assert proc.returncode == code
    if code == 2:
        assert proc.stdout == b""
    else:
        report = json.loads(proc.stdout)
        assert (report["command"], report["pass"]) == ("reproduce", True)


def test_cold_import_loads_no_dataclasses_or_inspect():
    # a bare interpreter's modules against those after importing the CLI:
    # dataclasses (and through it inspect, ast, dis) or fractions (and
    # through it decimal and numbers) would cost the start-up of every
    # single CLI call
    code = (
        "import sys; before = set(sys.modules); import quivsurf.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), timeout=60, check=True
    )
    new = set(proc.stdout.split())
    layers = ("cli", "exceptional", "linalg", "quivers", "reproduce", "toric")
    assert {f"quivsurf.{layer}" for layer in layers} <= new
    assert not {"dataclasses", "inspect", "fractions", "decimal", "numbers"} & new


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


# sha256 over the `toric knum P` reports of the ten presets, concatenated in
# this order: the Euler-pairing Gram matrices and their obstruction verdicts.
KNUM_PRESETS = ("P2", "P1xP1", "F0", "F1", "F2", "F3", "Bl1P2", "Bl2P2", "Bl3P2", "dP6")
KNUM_PRESETS_SHA256 = "f1338fb7942f22a27bad82be8d3c664b860f76cc309f8004bf9664c25cde7c27"


def test_toric_knum_presets_are_pinned(capsys):
    digest = hashlib.sha256()
    for name in KNUM_PRESETS:
        code, out, _ = run_cli(capsys, "toric", "knum", name)
        assert code == 0
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == KNUM_PRESETS_SHA256


# sha256 over the exit code and stdout of one or two calls of each other
# command, in this order: obstruct on a quiver and a Gram matrix, two toric
# coh, a passing and a failing verify, two search and solve-abc.
COMMAND_INPUTS = {
    "a5.json": {"vertices": 5, "arrows": [[i, i + 1] for i in range(4)]},
    "gram.json": OBSTRUCT_RESULTS["five-vertex Gram"][0],
    "strong.json": {
        "fan": {"rays": [[1, 0], [0, 1], [-1, 0], [-1, -1], [0, -1]]},
        "objects": [{"line": [0, 0, 0, 0, 0]}, {"line_pic": [1, 0, -1]}, {"line_pic": [1, 0, 0]}],
    },
    "backward.json": {
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]]},
        "objects": [{"line": [0, 0, 0]}, {"line": [-1, 0, 0]}],
    },
}
COMMAND_CALLS = (
    ("obstruct", "a5.json"),
    ("obstruct", "gram.json"),
    ("toric", "coh", "P2", "-d", "[2, 0, 0]"),
    ("toric", "coh", "dP6", "-d", '{"pic": [0, 0, 0, 1]}'),
    ("verify", "strong.json", "--strong"),
    ("verify", "backward.json", "--strong"),
    ("search", "dP6", "1", "3", "1", "--bound", "1"),
    ("search", "P1xP1", "3", "2", "0", "--bound", "1"),
    ("solve-abc", "--max", "4"),
)
COMMANDS_SHA256 = "0af5cca2bcbe758574e1f36ccdca49a5672f48d77d1cf11ee3373e9ea2d85498"


def test_command_outputs_are_pinned(tmp_path, capsys):
    for name, payload in COMMAND_INPUTS.items():
        write_json(tmp_path, name, payload)
    digest = hashlib.sha256()
    for call in COMMAND_CALLS:
        argv = [str(tmp_path / a) if a in COMMAND_INPUTS else a for a in call]
        code, out, _ = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == COMMANDS_SHA256


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


def test_solve_abc_limits_max(capsys):
    code, out, err = run_cli(capsys, "solve-abc", "--max", "1000000")
    assert (code, out) == (2, "")
    assert err == "error: solve-abc --max is limited to 10000, got 1000000\n"
    code, out, _ = run_cli(capsys, "solve-abc", "--max", "10000")
    assert code == 0 and len(json.loads(out)["result"]["solutions"]) == 4 * 10000 + 1


def test_reproduce_limits_m_max(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "reproduce", "--m-max", "41")
    assert (code, out) == (2, "")
    assert err == "error: reproduce --m-max is limited to 40, got 41\n"
    # the limit itself is accepted; a stub battery keeps the check cheap
    seen = []
    monkeypatch.setattr(cli, "run_all", lambda m_max, seed: seen.append(m_max) or {"summary": {}, "pass": True})
    code, _, _ = run_cli(capsys, "reproduce", "--m-max", "40")
    assert (code, seen) == (0, [40])


def test_search_limits_the_box(capsys):
    code, out, err = run_cli(capsys, "search", "dP6", "1", "1", "1", "--bound", "5")
    assert (code, out) == (2, "")
    assert err == "error: search box (2 * 5 + 1)^4 has 14641 points; the limit is 10000\n"
    # 9^4 = 6,561 points are allowed on dP6 (rho 4); the impossible triple
    # (1, 1, 0) returns before any cohomology
    code, out, _ = run_cli(capsys, "search", "dP6", "1", "1", "0", "--bound", "4")
    assert code == 0 and json.loads(out)["result"]["bound"] == 4
    # 101^2 = 10,201 points on P1xP1 are rejected before their lattice tests
    # are counted
    code, out, err = run_cli(capsys, "search", "P1xP1", "1", "1", "0", "--bound", "50")
    assert (code, out) == (2, "")
    assert err == "error: search box (2 * 50 + 1)^2 has 10201 points; the limit is 10000\n"


def test_search_charges_its_lattice_tests(tmp_path, capsys, monkeypatch):
    # a small box is no cap on its own, since the lattice counts grow with
    # the rays and the coefficients: the 9 points of this fan at --bound 1
    # would take hours
    fan = write_json(tmp_path, "long.json", {"rays": [[1, 0], [0, 1], [-1, 1000000000], [0, -1]]})
    code, out, err = run_cli(capsys, "search", fan, "1", "1", "1", "--bound", "1")
    assert (code, out) == (2, "")
    assert err == (
        "error: search would test 32000000060 lattice inequalities for the box; "
        "the limit is 3200000\n"
    )
    assert_input_error(
        capsys, "search", "F3", "1", "1", "1", "--bound", "30", message="test 24993508 lattice inequalities"
    )
    code, out, _ = run_cli(capsys, "search", "P2", "1", "1", "1", "--bound", "9")
    assert code == 0 and json.loads(out)["result"]["bound"] == 9
    # P2 at --bound 1: D = 0 scans one point and D = (1, 0, 0) a box of 4,
    # 3 rays at each; every other D and K - D has no sections
    monkeypatch.setattr(cli, "LATTICE_TEST_BOUND", 15)
    code, _, _ = run_cli(capsys, "search", "P2", "1", "1", "1", "--bound", "1")
    assert code == 0
    monkeypatch.setattr(cli, "LATTICE_TEST_BOUND", 14)
    assert_input_error(
        capsys, "search", "P2", "1", "1", "1", "--bound", "1", message="test 15 lattice inequalities"
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_search_charge_admits_every_preset_box(capsys, monkeypatch, name):
    # the largest box the former caps (--bound 8, 10,000 vectors) accepted:
    # a stub stands in for the search, so only the charge is computed
    rho = preset(name).picard_rank
    bound = max(b for b in range(9) if (2 * b + 1) ** rho <= cli.SEARCH_BOX_BOUND)
    seen = []

    def stub(surface, a, b, c, bound):
        seen.append(bound)
        return AbcSearchResult((a, b, c), (), None)

    monkeypatch.setattr(cli, "search_abc", stub)
    code, _, _ = run_cli(capsys, "search", name, "1", "1", "1", "--bound", str(bound))
    assert (code, seen) == (0, [bound])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_search_default_bound_fits_every_preset(capsys, name):
    code, out, _ = run_cli(capsys, "search", name, "1", "1", "0")
    assert code == 0 and json.loads(out)["result"]["bound"] == 3


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

    # toric coh reads the cohomology of its checked divisor through _coh
    monkeypatch.setattr(ToricSurface, "_coh", broken)
    code, out, err = run_cli(capsys, "toric", "coh", "P2", "-d", "[1, 0, 0]")
    assert (code, out) == (3, "")
    assert err == "internal error: ConsistencyError: Riemann-Roch parity failed\n"


def test_any_other_exception_is_an_internal_error(capsys, monkeypatch):
    # a bug is one line and exit 3, never a traceback with the verdict code 1
    def broken(args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "cmd_solve_abc", broken)
    code, out, err = run_cli(capsys, "solve-abc", "--max", "1")
    assert (code, out) == (3, "")
    assert err == "internal error: TypeError: unsupported operand\n"


@pytest.mark.parametrize("argv", [["obstruct", "-"], ["toric", "knum", "-"]])
def test_closed_stdin_is_an_input_error(tmp_path, argv):
    # with fd 0 closed sys.stdin is None: one error line and exit 2
    command = shlex.join([sys.executable, "-m", "quivsurf", *argv]) + " <&-"
    proc = subprocess.run(
        ["sh", "-c", command], cwd=tmp_path, capture_output=True, env=subprocess_env(), timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: cannot read -: standard input is closed\n"


def test_obstruct_limits_quiver_json_vertices(tmp_path, capsys):
    path = write_json(tmp_path, "big.json", {"vertices": 101, "arrows": []})
    code, out, err = run_cli(capsys, "obstruct", path)
    assert (code, out) == (2, "")
    assert "limited to 100 vertices" in err
    path = write_json(tmp_path, "edge.json", {"vertices": 100, "arrows": [[0, 99]]})
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0 and json.loads(out)["result"]["rank_chi_minus"] == 2


def test_obstruct_reads_an_arrow_heavy_quiver(tmp_path, capsys):
    # the A100 chain with 2,000 copies of each arrow: 198,000 arrows within
    # the vertex bound, each read once by the topological order
    arrows = [[i, i + 1] for i in range(99) for _ in range(2000)]
    path = write_json(tmp_path, "a100x2000.json", {"vertices": 100, "arrows": arrows})
    code, out, _ = run_cli(capsys, "obstruct", path)
    result = json.loads(out)["result"]
    assert code == 1
    assert (result["rank_chi_minus"], result["forbidden_witness"]) == (100, None)


def test_obstruct_limits_gram_json_rows(tmp_path, capsys):
    # unimodular Gram rows used to be read at any size: 300 rows took 31 s
    def unitriangular(n):
        return [[int(i == j) + (j == i + 1) for j in range(n)] for i in range(n)]

    path = write_json(tmp_path, "big.json", {"gram": unitriangular(cli.JSON_VERTEX_BOUND + 1)})
    code, out, err = run_cli(capsys, "obstruct", path)
    assert (code, out) == (2, "")
    assert err == "error: Gram JSON is limited to 100 rows, got 101\n"
    path = write_json(tmp_path, "edge.json", {"gram": unitriangular(100)})
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 1 and json.loads(out)["result"]["rank_chi_minus"] == 100


def test_obstruct_limits_gram_json_entries(tmp_path, capsys):
    # the exact rank and signature grow with the digits of the entries: a
    # 100-row unitriangular Gram with 20-digit entries took 10.7 s
    edge = [[1, cli.GRAM_ENTRY_BOUND], [0, 1]]
    code, out, _ = run_cli(capsys, "obstruct", write_json(tmp_path, "edge.json", {"gram": edge}))
    assert code == 0 and json.loads(out)["result"]["signature_chi_plus"] == [1, 1, 0]
    for big in (cli.GRAM_ENTRY_BOUND + 1, -(10**20)):
        path = write_json(tmp_path, "big.json", {"gram": [[1, 0, 0], [0, 1, big], [0, 0, 1]]})
        code, out, err = run_cli(capsys, "obstruct", path)
        assert (code, out) == (2, "")
        assert err == f"error: Gram matrix entry is limited to 999999 in absolute value, got {big}\n"


def blown_up_fan(n_rays):
    """A smooth fan of n_rays rays from P1xP1 by blow-ups at spread walls."""
    s, wall = preset("P1xP1"), 0
    while s.n_rays < n_rays:
        s, wall = s.blow_up(wall % s.n_rays), wall + 3
    return {"rays": [list(r) for r in s.rays]}


def test_fan_json_limits_rays(tmp_path, capsys):
    big = write_json(tmp_path, "big.json", blown_up_fan(cli.JSON_VERTEX_BOUND + 1))
    collection = write_json(tmp_path, "coll.json", {"fan": blown_up_fan(101), "objects": []})
    for argv in (
        ("toric", "knum", big),
        ("toric", "coh", big, "-d", json.dumps([0] * 101)),
        ("search", big, "1", "1", "0"),
        ("verify", collection),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: fan JSON is limited to 100 rays, got 101\n"
    edge = write_json(tmp_path, "edge.json", blown_up_fan(100))
    code, out, _ = run_cli(capsys, "toric", "coh", edge, "-d", json.dumps([0] * 100))
    assert code == 0 and json.loads(out)["result"]["h"] == [1, 0, 0]


def test_toric_coh_limits_the_lattice_boxes(tmp_path, capsys, monkeypatch):
    # P2 with D = (N, 0, 0) tests 3 rays at each of the (N + 1)^2 box points;
    # K - D has no sections and scans none
    for n, tests in ((100000, 30000600003), (1032, 3201267)):
        code, out, err = run_cli(capsys, "toric", "coh", "P2", "-d", f"[{n}, 0, 0]")
        assert (code, out) == (2, "")
        assert err == (
            f"error: toric coh would test {tests} lattice inequalities for D and K - D; "
            "the limit is 3200000\n"
        )
    # a long fan is charged for its rays: 390,726 box points with 100 rays each
    fan = write_json(tmp_path, "fan100.json", blown_up_fan(100))
    assert_input_error(
        capsys, "toric", "coh", fan, "-d", json.dumps([5] * 100), message="test 39072600 lattice inequalities"
    )
    # on P1xP1, D = (1, 0, -3, 0) and K - D = (-2, -1, 2, -1) scan 3 points
    # each, 4 rays at each point
    monkeypatch.setattr(cli, "LATTICE_TEST_BOUND", 24)
    code, out, _ = run_cli(capsys, "toric", "coh", "P1xP1", "-d", "[1, 0, -3, 0]")
    assert code == 0 and json.loads(out)["result"]["h"] == [0, 1, 0]
    monkeypatch.setattr(cli, "LATTICE_TEST_BOUND", 23)
    assert_input_error(
        capsys, "toric", "coh", "P1xP1", "-d", "[1, 0, -3, 0]", message="test 24 lattice inequalities"
    )


def test_verify_limits_the_lattice_tests(tmp_path, capsys, monkeypatch):
    # O and O(N) on P2: O(N) scans 3 (N + 1)^2 inequalities, O(-N) scans
    # its K - D = (N - 1, -1, -1), and the difference 0 scans one point
    hostile = {"fan": P2_FAN, "objects": [{"line": [0, 0, 0]}, {"line": [100000, 0, 0]}]}
    code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "hostile.json", hostile))
    assert (code, out) == (2, "")
    assert err == (
        "error: verify would test 59999400018 lattice inequalities for the line-bundle "
        "differences; the limit is 3200000\n"
    )
    # (O, O(1), O(2)): each distinct difference once, 3 for 0, 12 + 0 for
    # +-1 and 27 + 12 for +-2
    beilinson = {"fan": P2_FAN, "objects": [{"line": [k, 0, 0]} for k in range(3)]}
    path = write_json(tmp_path, "beilinson.json", beilinson)
    monkeypatch.setattr(cli, "LATTICE_TEST_BOUND", 54)
    code, out, _ = run_cli(capsys, "verify", path, "--strong")
    assert code == 0 and json.loads(out)["result"]["ok"]
    monkeypatch.setattr(cli, "LATTICE_TEST_BOUND", 53)
    assert_input_error(capsys, "verify", path, message="test 54 lattice inequalities")
    # curve sheaves scan nothing: (O, O_C0, O_C3) on dP6 tests only O - O
    mixed = {
        "fan": {"rays": [list(r) for r in preset("dP6").rays]},
        "objects": [{"line": [0] * 6}, {"curve_ray": 0}, {"curve_ray": 3}],
    }
    path = write_json(tmp_path, "mixed.json", mixed)
    monkeypatch.setattr(cli, "LATTICE_TEST_BOUND", 6)
    code, _, _ = run_cli(capsys, "verify", path)
    assert code == 0
    monkeypatch.setattr(cli, "LATTICE_TEST_BOUND", 5)
    assert_input_error(capsys, "verify", path, message="test 6 lattice inequalities")


@pytest.mark.parametrize(
    "argv, charge",
    [
        # P2 with D = (-10^23, 0, 0) scans only K - D = (10^23 - 1, -1, -1)
        (
            ("toric", "coh", "P2", "-d", "[-100000000000000000000000,0,0]"),
            "toric coh would test 29999999999999999999998800000000000000000000012 lattice "
            "inequalities for D and K - D",
        ),
        (
            ("verify", "huge.json"),
            "verify would test 59999999999999999999999400000000000000000000018 lattice "
            "inequalities for the line-bundle differences",
        ),
        (
            ("search", "longer.json", "1", "1", "1", "--bound", "1"),
            "search would test 32000000000000000000060 lattice inequalities for the box",
        ),
    ],
    ids=["toric coh", "verify", "search"],
)
def test_astronomical_lattice_charges_exit_2(tmp_path, capsys, monkeypatch, argv, charge):
    # box sides past sys.maxsize, where len() of the range raises
    # OverflowError: exit 1 would read as a negative verdict
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "huge.json", {"fan": P2_FAN, "objects": [{"line": [0, 0, 0]}, {"line": [10**23, 0, 0]}]})
    write_json(tmp_path, "longer.json", {"rays": [[1, 0], [0, 1], [-1, 10**21], [0, -1]]})
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {charge}; the limit is 3200000\n"


def test_verify_limits_collection_objects(tmp_path, capsys):
    # n copies of O have one distinct difference, so the lattice-test bound
    # passes them, but the Hom table has n^2 entries: 1,000 took 9.8 s
    many = {"fan": P2_FAN, "objects": [{"line": [0, 0, 0]}] * (cli.JSON_VERTEX_BOUND + 1)}
    code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "many.json", many))
    assert (code, out) == (2, "")
    assert err == "error: collection JSON is limited to 100 objects, got 101\n"
    edge = {"fan": P2_FAN, "objects": [{"line": [0, 0, 0]}] * 100}
    code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "edge.json", edge))
    assert code == 1 and json.loads(out)["result"]["objects"] == 100


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


# verify --strong on three line bundles: the P1xP1 triple (O, O(1,0), O(1,1))
# has abc (2, 2, 0); the P2 triple (O, O(1), O(2)) has hom(0,2) = 6 < 3 * 3,
# so its report carries abc_error instead
STRONG_TRIPLES = {
    "p1xp1.json": (
        {
            "fan": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
            "objects": [{"line_pic": [0, 0]}, {"line_pic": [1, 0]}, {"line_pic": [1, 1]}],
        },
        {
            "abc": [2, 2, 0],
            "hom": [
                [[1, 0, 0], [2, 0, 0], [4, 0, 0]],
                [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
                [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            ],
        },
    ),
    "p2.json": (
        {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "objects": [{"line": [k, 0, 0]} for k in range(3)]},
        {
            "abc_error": "relations present: hom(0,2)=6 is smaller than a*b=9",
            "hom": [
                [[1, 0, 0], [3, 0, 0], [6, 0, 0]],
                [[0, 0, 0], [1, 0, 0], [3, 0, 0]],
                [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            ],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(STRONG_TRIPLES))
def test_verify_strong_triple_stdout_is_pinned(tmp_path, capsys, name):
    collection, result = STRONG_TRIPLES[name]
    code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, name, collection), "--strong")
    report = {
        "command": "verify",
        "pass": True,
        "result": {**result, "objects": 3, "ok": True, "strong": True},
        "schema": cli.SCHEMA,
        "version": cli.__version__,
    }
    assert (code, out) == (0, json.dumps(report, sort_keys=True, indent=2) + "\n")


def test_verify_strong_builds_one_ext_table(tmp_path, capsys, monkeypatch):
    # abc is read from the verification that the report already holds
    verify, calls = exceptional.verify_collection, []

    def counted(collection, strong=True):
        calls.append(strong)
        return verify(collection, strong)

    monkeypatch.setattr(exceptional, "verify_collection", counted)
    monkeypatch.setattr(cli, "verify_collection", counted)
    path = write_json(tmp_path, "p1xp1.json", STRONG_TRIPLES["p1xp1.json"][0])
    code, out, _ = run_cli(capsys, "verify", path, "--strong")
    assert code == 0 and json.loads(out)["result"]["abc"] == [2, 2, 0]
    assert calls == [True]


def test_verify_adjacent_curves_is_a_verdict(tmp_path, capsys):
    # C_0 and C_1 on dP6 meet in one point: Ext^1(O_C1, O_C0) is one-dimensional
    payload = {
        "fan": {"rays": [list(r) for r in preset("dP6").rays]},
        "objects": [{"curve_ray": 0}, {"curve_ray": 1}],
    }
    code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "adjacent.json", payload))
    result = json.loads(out)["result"]
    assert code == 1 and result["ok"] is False
    assert result["failure"]["detail"] == "backward Ext(0,1) nonzero: dimensions (0, 1, 0)"


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
        ({"vertices": 3, "arrows": [[0, 1, 2]]}, "error: arrow [0, 1, 2] is not a (source, target) pair"),
        ({"vertices": 3, "arrows": [[0]]}, "error: arrow [0] is not a (source, target) pair"),
    ):
        assert_input_error(capsys, "obstruct", write_json(tmp_path, "bad.json", bad), message=message)


def test_gram_json(tmp_path, capsys):
    for rows in ([[1, 2], [0, 1]], [[0, 1], [1, 0]]):
        path = write_json(tmp_path, "gram.json", {"gram": rows})
        assert_obstruct_reads(capsys, path, rows)
    for rows, message in (
        ([[1, 2, 3], [0, 1, 0]], "square"),
        ([], "Gram matrix must be a non-empty square"),
        ([[1, 2], [3]], "Gram matrix must be a non-empty square"),
        ([[2, 0], [0, 5]], "unimodular, but its determinant is 10"),
        ([[1, 2], [2, 4]], "unimodular, but its determinant is 0"),
    ):
        path = write_json(tmp_path, "bad.json", {"gram": rows})
        assert_input_error(capsys, "obstruct", path, message=message)
