"""The README's library example and command-line examples run as written."""

import io
import json
import re
import shlex
from pathlib import Path

from quivsurf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def assert_shows(shown: dict, actual: dict):
    for key, value in shown.items():
        if isinstance(value, dict):
            assert_shows(value, actual[key])
        else:
            assert actual[key] == value, key


def test_readme_cli_examples_run(capsys, monkeypatch):
    """Each `$ [echo '...' |] quivsurf ...` block: the command exits as its
    "pass" says, and every field the README shows is in the report."""
    examples = re.findall(r"```\n\$ (.*?)\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(examples) == 2, "README should show the obstruct and toric coh examples"
    for command, shown in examples:
        if " | " in command:
            echo, command = command.split(" | ")
            monkeypatch.setattr("sys.stdin", io.StringIO(shlex.split(echo)[1]))
        argv = shlex.split(command)
        assert argv[0] == "quivsurf"
        code = main(argv[1:])
        report = json.loads(capsys.readouterr().out)
        # an elided report ends in "...": close it; bare fields are result fields
        shown = shown.strip().strip(".").strip()
        if shown.startswith("{"):
            assert_shows(json.loads(re.sub(r",\s*\.\.\.\s*}", "}", shown)), report)
        else:
            assert_shows(json.loads("{" + shown + "}"), report["result"])
        assert code == (0 if report["pass"] else 1)
