"""Byte-identity gate for the command line.

``tests/golden.json`` records, for every fixture in ``tests/data``,
every command and both output formats, the exit code, the exact stderr
and the sha256 of stdout.  This test replays each call in process
through ``hyperq.cli.main`` and compares.  A change to the output is a
behaviour change; when it is meant, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which bytes moved and why.  The file sits
outside ``tests/data`` because other suites read every JSON file there
as an input table.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hyperq import cli

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden.json"
COMMANDS = ("atoms", "algebra", "check", "kms", "evolve", "convolve", "site")


def _fixtures() -> list[str]:
    return sorted(p.name for p in DATA.glob("*.json"))


def _replay(call: dict) -> dict:
    argv = [call["command"], str(DATA / call["file"]), "--format", call["format"],
            *call["extra"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {**call, "exit": code, "stderr": err.getvalue(),
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stdout": out.getvalue()}


def _generate() -> list[dict]:
    calls = []
    for file in _fixtures():
        names = cli.Context(str(DATA / file)).base.arrow_names
        first, last = names[0], names[-1]
        extra = {
            "evolve": ["--t", "0.5", f"--element=[{first}] - 1/2*[{last}]"],
            "convolve": [f"--f=[{first}] + 2*[{last}]", f"--g=inf*[{first}] + [{last}]"],
        }
        for command in COMMANDS:
            for fmt in ("table", "json"):
                call = {"file": file, "command": command, "format": fmt,
                        "extra": extra.get(command, [])}
                result = _replay(call)
                del result["stdout"]
                calls.append(result)
    return calls


CALLS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_every_fixture_command_and_format():
    assert {c["file"] for c in CALLS} == set(_fixtures())
    assert len(CALLS) == len(_fixtures()) * len(COMMANDS) * 2


def _mismatch(call: dict):
    """None when replaying the call gives the recorded result, else a
    message showing the differing output."""
    got = _replay({k: call[k] for k in ("file", "command", "format", "extra")})
    stdout = got.pop("stdout")
    if got == call:
        return None
    return (f"{call['command']} {call['format']} {call['file']}: "
            f"expected exit {call['exit']}, stderr {call['stderr']!r}, "
            f"stdout sha256 {call['stdout_sha256']}\n"
            f"got exit {got['exit']}, stderr {got['stderr']!r}, "
            f"stdout sha256 {got['stdout_sha256']}:\n{stdout}")


@pytest.mark.parametrize("call", CALLS,
                         ids=[f"{c['command']}-{c['format']}-{c['file']}" for c in CALLS])
def test_cli_output_matches_golden(call):
    message = _mismatch(call)
    if message is not None:
        pytest.fail(message)


def test_golden_replay_without_asserts():
    # the same replay in a fresh interpreter under -O, where assert
    # statements are stripped, so no recorded byte may depend on one
    script = ("import sys, test_golden\n"
              "if not sys.flags.optimize: sys.exit('not run under -O')\n"
              "bad = [m for c in test_golden.CALLS if (m := test_golden._mismatch(c))]\n"
              "print(len(test_golden.CALLS), *bad, sep='\\n')\n")
    here = pathlib.Path(__file__).parent
    path = [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(CALLS)}\n", proc.stdout


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_generate(), indent=1) + "\n")
