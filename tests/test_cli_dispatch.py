"""Direct dispatch reads every command line as the full parser does.

``cli.main`` hands a call that names its command first straight to that
command's parser, and every other call to the full parser.  For every
golden call and for the usage corner cases below (no command, an
unknown one, help, a missing or invalid argument, an option before the
command, a leftover argument, literals with a leading minus),
``cli.main`` must give the same exit code, stdout and stderr as
``build_parser().parse_args`` followed by the command, and the two
parses must give the same namespace.
"""

import argparse
import contextlib
import io

import pytest

from conftest import DATA
from hyperq import cli

from test_golden import CALLS

FILE = str(DATA / "s3_cosets.json")

ARGVS = [
    [c["command"], str(DATA / c["file"]), "--format", c["format"], *c["extra"]]
    for c in CALLS
] + [
    [], ["bogus"], ["--version"], ["-h"], ["check", "-h"], ["check"],
    ["evolve", FILE, "--element", "[a1]"],
    ["check", FILE, "extra"],
    ["check", FILE, "--format", "xml"],
    ["--format", "json", "check", FILE],
    ["evolve", FILE, "--t", "-1", "--element", "-1*[a1]"],
]


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


def _outcome(parse, argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` reading its
    arguments with ``parse``."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_args", parse)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _namespace(parse, argv):
    """The parsed namespace, or the exit code of a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parse(cli._attach_literals(argv))
        except SystemExit as exc:
            return exc.code


def _id(argv):
    return " ".join(a.rsplit("/", 1)[-1] if a.endswith(".json") else a
                    for a in argv) or "no-arguments"


@pytest.mark.parametrize("argv", ARGVS, ids=[_id(a) for a in ARGVS])
def test_direct_dispatch_equals_the_full_parser(argv):
    direct = _namespace(cli._parse_args, argv)
    full = _namespace(_full_parse, argv)
    assert type(direct) is type(full)
    if isinstance(full, argparse.Namespace):
        assert vars(direct) == vars(full)
    assert _outcome(cli._parse_args, argv) == _outcome(_full_parse, argv)

