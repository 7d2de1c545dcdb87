"""Both sides of the column width switch.

A table's id columns are ``bytes`` up to 256 arrows and ``array('H')``
up to 65536; a larger table is refused.  The action of the trivial group
on 16 points has 256 arrows, one per ordered pair, and on 17 points 289,
so these two inputs sit on either side of the switch.  The sha256 of the
stdout of ``algebra``, ``check`` and ``convolve`` on each is held here,
as recorded with the integer columns that came before; the row check
must name every fault as it did then, at both widths and with and
without ``python -O``, and take rows in any sequence of ints.
"""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
from array import array

import pytest

from conftest import DATA
from hyperq import cli
from hyperq.algebra import convolve_ext, mul
from hyperq.errors import MalformedTable
from hyperq.hypergroupoid import Hypergroupoid, unpack
from hyperq.io import load_input
from hyperq.realization import PermAction, orbit_atoms, weights
from test_ladder_golden import _run

SHA256 = {
    (16, "algebra"): "8c1591c30770ea3a255bf2c2d79712f23926544ee9a42ddbcdd7adc8bf26285f",
    (16, "check"): "c97cd5b3361f10c4972c283ce7174949c4b843a6e5e9c7de0b7d5cfc94801de6",
    (16, "convolve"): "65bf5777e134955a06c3589dcbda6fd75b0e16231726cb8d126cd62405943575",
    (17, "algebra"): "c2efb3c5a6cfbfdc57b6a36445efa9195c519df1773de12083aa2e67b0449f9c",
    (17, "check"): "fc109e64309b5e48cac33d49d5fd055a4a8e20c2cd18d82a3d2e23c69f0ae96a",
    (17, "convolve"): "1daaf940650005e1d518ee7a50d55e0ac49ab8a8bab2f02f87af63af14985d96",
}


def _input_text(points: int) -> str:
    return json.dumps({"schema": "hyperq/1", "kind": "action", "name": f"free{points}",
                       "points": points, "generators": []}) + "\n"


@pytest.mark.parametrize("points", [16, 17])
def test_width_boundary_output_matches_recorded_bytes(points, tmp_path):
    path = tmp_path / f"free{points}.json"
    path.write_text(_input_text(points))
    for command in ("algebra", "check", "convolve"):
        assert _run(path, command, "json") == (0, "", SHA256[points, command]), command


def tables() -> dict[str, Hypergroupoid]:
    """A small table and the two tables of the width switch."""
    return {"s3_mixed": orbit_atoms(load_input(DATA / "s3_mixed.json")[0].action).hypergroupoid,
            "free16": orbit_atoms(PermAction(16, ())).hypergroupoid,
            "free17": orbit_atoms(PermAction(17, ())).hypergroupoid}


@pytest.fixture(scope="module")
def held():
    return tables()


def test_the_column_type_switches_past_256_arrows(held):
    assert [held[name].n_arrows for name in ("s3_mixed", "free16", "free17")] == [14, 256, 289]
    for name in ("s3_mixed", "free16"):
        H = held[name]
        assert {type(col) for col in (*H.rows, *H.identity_rows)} == {bytes}, name
    H = held["free17"]
    assert {(type(col), col.typecode) for col in (*H.rows, *H.identity_rows)} == {(array, "H")}


def _loops(n: int) -> Hypergroupoid:
    """n units, each with only its identity loop."""
    ids = tuple(range(n))
    return Hypergroupoid(tuple(map(str, ids)), tuple(map(str, ids)), ids, ids, ids, ids,
                         rows=(ids, ids, ids))


def test_more_than_65536_arrows_are_refused():
    H = _loops(65536)
    assert (type(H.rows[0]), H.rows[0].typecode, H.keys[-1]) == (
        array, "H", (65535 << 32) + (65535 << 16) + 65535)
    with pytest.raises(MalformedTable) as info:
        _loops(65537)
    assert str(info.value) == "a table holds at most 65536 arrows, not 65537"


ARGS = {"evolve": ("--t", "1", "--element", "[a0]")}


@pytest.mark.parametrize("command", ["atoms", "kms", "evolve"])
def test_an_action_past_65536_arrows_is_refused_by_every_command(command, tmp_path):
    # the trivial group on 257 points has 66049 arrows; these commands read
    # only the identity rows, and refuse the action all the same, exit 2
    # with nothing written
    path = tmp_path / "free257.json"
    path.write_text(_input_text(257))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), *ARGS.get(command, ())])
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", "error: a table holds at most 65536 arrows, not 66049\n")


def _edits(H):
    """Edits of the rows as three lists, each at the middle row."""
    n = H.n_arrows

    def put(col, value):
        def edit(*columns):
            columns[col][len(columns[0]) // 2] = value
        return edit

    def swap(*columns):
        i = len(columns[0]) // 2
        for col in columns:
            col[i], col[i + 1] = col[i + 1], col[i]

    def untyped(b, a, c):
        i = len(b) // 2
        c[i] = next(g for g in range(n) if (H.src[g], H.tgt[g]) != (H.src[a[i]], H.tgt[b[i]]))

    def drop(*columns):
        b, a = columns[0][:], columns[1][:]
        i = len(b) // 2
        for col in columns:
            col[:] = [x for x, pair in zip(col, zip(b, a)) if pair != (b[i], a[i])]

    return {"id-n": put(1, n), "id-255": put(2, 255), "id-256": put(2, 256),
            "id-65536": put(2, 65536), "negative": put(0, -1), "swap": swap,
            "untyped": untyped, "drop": drop}


ORDER = "composition rows must strictly increase by src(b), b, a, c"
# the messages of the integer columns that came before
MESSAGES = {
    ("s3_mixed", "id-n"): "comp key (9,14) is not a pair of arrow ids",
    ("s3_mixed", "id-255"): "composite 255 of (9,7) lands outside hom(1,1)",
    ("s3_mixed", "id-256"): "composite 256 of (9,7) lands outside hom(1,1)",
    ("s3_mixed", "id-65536"): "composite 65536 of (9,7) lands outside hom(1,1)",
    ("s3_mixed", "negative"): "comp key (-1,7) is not a pair of arrow ids",
    ("s3_mixed", "swap"): ORDER,
    ("s3_mixed", "untyped"): "composite 0 of (9,7) lands outside hom(1,1)",
    ("s3_mixed", "drop"): "missing composition set for (9,7)",
    ("free16", "id-n"): "comp key (8,256) is not a pair of arrow ids",
    ("free16", "id-255"): "composite 255 of (8,128) lands outside hom(0,0)",
    ("free16", "id-256"): "composite 256 of (8,128) lands outside hom(0,0)",
    ("free16", "id-65536"): "composite 65536 of (8,128) lands outside hom(0,0)",
    ("free16", "negative"): "comp key (-1,128) is not a pair of arrow ids",
    ("free16", "swap"): ORDER,
    ("free16", "untyped"): "composite 1 of (8,128) lands outside hom(0,0)",
    ("free16", "drop"): "missing composition set for (8,128)",
    ("free17", "id-n"): "comp key (144,289) is not a pair of arrow ids",
    ("free17", "id-255"): "composite 255 of (144,144) lands outside hom(8,8)",
    ("free17", "id-256"): "composite 256 of (144,144) lands outside hom(8,8)",
    ("free17", "id-65536"): "composite 65536 of (144,144) lands outside hom(8,8)",
    ("free17", "negative"): "comp key (-1,144) is not a pair of arrow ids",
    ("free17", "swap"): ORDER,
    ("free17", "untyped"): "composite 0 of (144,144) lands outside hom(8,8)",
    ("free17", "drop"): "missing composition set for (144,144)",
}


def refusals(tables) -> dict[str, str]:
    """The message of each edit of each table, keyed "table/edit"."""
    out = {}
    for name, H in tables.items():
        for fault, edit in _edits(H).items():
            columns = [list(col) for col in H.rows]
            edit(*columns)
            try:
                dataclasses.replace(H, rows=tuple(columns))
            except MalformedTable as exc:
                out[f"{name}/{fault}"] = str(exc)
            else:
                out[f"{name}/{fault}"] = None
    return out


def test_every_fault_is_named_as_before(held):
    assert refusals(held) == {f"{name}/{fault}": m for (name, fault), m in MESSAGES.items()}


def test_every_fault_is_named_as_before_under_python_O():
    # the row check raises explicitly, so -O names the same faults
    here = pathlib.Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])}
    code = ("import json, test_column_width as t\n"
            "print(json.dumps(t.refusals(t.tables())))\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=here.parent,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {f"{name}/{fault}": m for (name, fault), m in MESSAGES.items()}


@pytest.mark.parametrize("name", ["s3_mixed", "free16", "free17"])
def test_rows_in_any_sequence_are_held_in_column_form(held, name):
    H = held[name]
    kinds = {type(col) for col in H.rows}
    for rows in (tuple(map(tuple, H.rows)), [list(col) for col in H.rows],
                 tuple(array("q", tuple(col)) for col in H.rows)):
        again = dataclasses.replace(H, rows=rows)
        assert again.rows == H.rows and {type(col) for col in again.rows} == kinds
        assert again.identity_rows == H.identity_rows and again.keys == H.keys


@pytest.mark.parametrize("name", ["s3_mixed", "free16", "free17"])
def test_pair_refuses_an_id_past_the_arrows(held, name):
    # an id past the arrows must not reach into the next field of a key
    H = held[name]
    b, a, _ = (col[len(col) // 2] for col in H.rows)
    assert len(H.pair(b, a)) > 0
    for bad in (H.n_arrows, a + 256, a + 65536):
        with pytest.raises(IndexError):
            H.pair(b, bad)
        with pytest.raises(IndexError):
            H.pair(bad, a)


@pytest.mark.parametrize("name", ["s3_mixed", "free16", "free17"])
def test_pair_refuses_a_negative_id(held, name):
    # a negative id must not wrap round to the last arrows
    H = held[name]
    b, a, _ = (col[len(col) // 2] for col in H.rows)
    for bad in (-1, -H.n_arrows):
        for call in (H.pair, H.compose):
            with pytest.raises(IndexError):
                call(b, bad)
            with pytest.raises(IndexError):
                call(bad, a)


def test_products_refuse_a_negative_id():
    real = orbit_atoms(load_input(DATA / "s3_mixed.json")[0].action)
    W = weights(real)
    assert real.hypergroupoid.compose(6, 13) == {7, 8}
    assert mul(W, {6: 1}, {13: 1}) == convolve_ext(W, {6: 1}, {13: 1}) == {7: 1, 8: 1}
    for product in (mul, convolve_ext):
        for u, v in (({6: 1}, {-1: 1}), ({-1: 1}, {6: 1})):
            with pytest.raises(IndexError):
                product(W, u, v)


@pytest.mark.parametrize("name", ["s3_mixed", "free16", "free17"])
def test_unpack_inverts_pack(held, name):
    H = held[name]
    b_, a_, c_ = H.rows
    columns = unpack(H.codec, H.pack(b_, a_, c_))
    rank = H.by_source[1]
    assert [list(col) for col in columns] == [[rank[b] for b in b_], list(a_), list(c_)]
    assert {type(col) for col in columns} == {H.codec.kind}
    if H.codec.kind is array:
        assert {col.typecode for col in columns} == {"H"}
