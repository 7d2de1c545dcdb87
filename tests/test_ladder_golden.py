"""Byte-identity gate for the command line on the ladder of coset inputs.

``tests/golden.json`` covers the small fixtures of ``tests/data``.  The
five coset inputs of ``LADDER`` (up to 240 points and 5040 group
elements) are where realization and the structure-constant render do
real work, so the sha256 of the stdout of ``algebra --format json``,
``algebra`` (table) and ``kms --format json`` on each is held here.  Each
input is written as ``_input_text`` writes it, since its digest is part
of the output.  When a change to these bytes is meant, print the new
hashes with

    PYTHONPATH=src:tests python tests/test_ladder_golden.py

and say in the change log which bytes moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from hyperq import cli
from test_pair_orbits_oracle import LADDER

CALLS = (("algebra", "json"), ("algebra", "table"), ("kms", "json"))

SHA256 = {
    ("s4_regular", "algebra", "json"):
        "b53ed4f8488e78ab49501b995d3f08f9f364c06229c877e140cd0a14a68c7b9f",
    ("s4_regular", "algebra", "table"):
        "9acf63f20a41d9382b1c1305e81d89262d26d53692e115cee9d814f9f0dfaf3c",
    ("s4_regular", "kms", "json"):
        "8395cdc0f054183c3d44384269629ee5a647c092d84f2add9a02bb16958be01a",
    ("s5_regular", "algebra", "json"):
        "ef75ec97daf7077f79dd35a42d6aea2137b83123988eaf7b368b6cad58995ae4",
    ("s5_regular", "algebra", "table"):
        "131e7674ad5a20f1b85896101f5af6546a2cd86a2d58f55b38730d0420749a0d",
    ("s5_regular", "kms", "json"):
        "a50cc3f20ac2fbf1845482a6622045b13162da62cc13ab5c6329c26f355c1c55",
    ("s5_regular_points", "algebra", "json"):
        "ac4fcb3ba51eaf0b48e3665e3b887bc19e0a5707e0a3e5f902437bfc056068a2",
    ("s5_regular_points", "algebra", "table"):
        "36b105367e2a3dcd75944b7e3bce864f66fd4be7456d24fd5c96ca4f161544db",
    ("s5_regular_points", "kms", "json"):
        "367a95d6726b67bf3a7ba35df456b4389a7d0027d546ce63b19d3ade0bf36122",
    ("s6_c3_cosets", "algebra", "json"):
        "359d886643fe5e8138d3a39bab54f5b444701fe5766dfcde6389af624ff73792",
    ("s6_c3_cosets", "algebra", "table"):
        "416a581d362900cc9e3a59549e9949535c051408b89b1bba17f9136ec76ecdba",
    ("s6_c3_cosets", "kms", "json"):
        "3839805d35768f0033cf0b71f666e5ebe56deb4c645aa17684a675c06c5b51bf",
    ("s7_3subsets", "algebra", "json"):
        "eb2a1d7ce2dfd4a2ebf86fe410dd44b6a287ddb23a89c180be29aebf6db844b4",
    ("s7_3subsets", "algebra", "table"):
        "39527751a125a7705bb84474e75b754ad66c90d89c54a3915e384a1b1cf4d71d",
    ("s7_3subsets", "kms", "json"):
        "a070d6789bac42421e85ac3756440bf65414760edc6f85fdd27b8fffbbea8696",
}


def _input_text(name: str) -> str:
    spec = LADDER[name]
    return json.dumps({
        "schema": "hyperq/1", "kind": "coset", "name": name, "degree": spec.degree,
        "group_generators": [list(g) for g in spec.group_generators],
        "subgroups": [{"name": k, "generators": [list(g) for g in gens]}
                      for k, gens in spec.subgroups],
    }, indent=2) + "\n"


def _run(path, command: str, fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), "--format", fmt])
    return code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_output_matches_recorded_bytes(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(_input_text(name))
    for command, fmt in CALLS:
        assert _run(path, command, fmt) == (0, "", SHA256[name, command, fmt]), (command, fmt)


def test_every_ladder_call_is_recorded():
    assert set(SHA256) == {(name, *call) for name in LADDER for call in CALLS}


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(LADDER):
            path = Path(tmp) / f"{name}.json"
            path.write_text(_input_text(name))
            for command, fmt in CALLS:
                code, err, digest = _run(path, command, fmt)
                if code or err:
                    sys.exit(f"{name} {command} {fmt}: exit {code} {err}")
                print(f"    ({name!r}, {command!r}, {fmt!r}):\n        {digest!r},")
