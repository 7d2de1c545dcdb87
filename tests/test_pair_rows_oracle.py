"""The realized table as flat rows, against the dict builder it replaced.

``orbit_atoms`` keeps the structure constants as parallel columns (the
rows (b, a, c) of the hypergroupoid and the value column of the
weighted table).  The oracle here is the builder that wrote the comp and mu
dicts directly: one ``Counter`` per arrow over the keys rank(b)*k + a,
the first composite and count of each key in two flat lists, the further
ones in ``more``, and one sweep in key order.  On the corpus of
``tests/test_pair_orbits_oracle.py`` the dicts read off the columns, and
the weighted table's ``mu`` view, must equal its dicts in insertion
order, the pair table's equal composition sets must be one object, and
the weighted table and its weights must agree with them.

``orbit_atoms`` counts only the identity rows, whose composite is an
identity arrow, and builds the whole table when it is first read.  The
identity rows must be the oracle's entries at identity arrows, in order,
and the identity subsequence of the whole table.  ``atoms``, ``kms`` and
``evolve`` read no other row and must leave the whole table unbuilt,
S6 regular included; ``algebra``, ``check``, ``site`` and ``convolve``
build it before any output, so a fault put into it must make them exit
2 with nothing on stdout, under ``python -O`` too.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from itertools import compress
from operator import add

import pytest

from conftest import DATA
from hyperq import cli, realization
from hyperq.fixtures import random_coset_specs
from hyperq.io import load_input
from hyperq.realization import (
    PermAction,
    _pair_rows,
    coset_union_action,
    from_cycles,
    identity_perm,
    orbit_atoms,
    weights,
)
from table_dicts import comp_dict, mu_dict
from test_pair_orbits_oracle import ACTIONS, LADDER


def dict_pair_products(membership, n, reps, src):
    """(mu, comp) as dicts, mu keyed (c, b, a), both by src[b], b, a and
    then increasing c; equal composition sets are one frozenset."""
    k = len(reps)
    order = sorted(range(k), key=src.__getitem__)
    rank = sorted(range(k), key=order.__getitem__)
    rows: dict[int, list[int]] = {}
    first_c, first_v = [0] * (k * k), [0] * (k * k)
    more: dict[int, list[int]] = {}
    for c, (x, y) in enumerate(reps):
        row = rows.get(x)
        if row is None:
            row = rows[x] = [rank[b] * k for b in membership[x * n:(x + 1) * n]]
        for key, v in Counter(map(add, row, membership[y::n])).items():
            if first_v[key]:
                more.setdefault(key, []).extend((c, v))
            else:
                first_c[key], first_v[key] = c, v
    single = [frozenset((c,)) for c in range(k)]
    shared: dict[tuple[int, ...], frozenset[int]] = {}
    mu, comp = {}, {}
    for key in compress(range(k * k), first_v):
        r, a = divmod(key, k)
        b, c = order[r], first_c[key]
        mu[c, b, a] = first_v[key]
        extra = more.get(key)
        if extra is None:
            comp[b, a] = single[c]
        else:
            for i in range(0, len(extra), 2):
                mu[extra[i], b, a] = extra[i + 1]
            cs = (c, *extra[::2])
            comp[b, a] = shared.get(cs) or shared.setdefault(cs, frozenset(cs))
    return mu, comp


def _corpus():
    """The actions of the pair-orbit oracle's tests, by name."""
    out = {path.stem: load_input(str(path))[0].action for path in ACTIONS}
    out.update((name, coset_union_action(spec)) for name, spec in LADDER.items())
    out.update((f"coset_{i}", coset_union_action(spec))
               for i, spec in enumerate(random_coset_specs(12, seed=15)))
    out["cycles_7"] = PermAction(7, (from_cycles(7, (0, 1, 2)), from_cycles(7, (3, 4))))
    out["swaps_6"] = PermAction(6, (from_cycles(6, (1, 4)), from_cycles(6, (2, 5))))
    rng = random.Random(15)
    for i in range(40):
        n = rng.randint(2, 9)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(n), rng.randint(0, n))
            p = list(range(n))
            for j, m in zip(moved, moved[1:] + moved[:1]):
                p[j] = m
            gens.append(tuple(p))
        out[f"random_{i}"] = PermAction(n, tuple(gens))
    for i, gens in enumerate([(), (identity_perm(4),), (identity_perm(4), identity_perm(4)),
                              (from_cycles(4, (0, 1, 2)), from_cycles(4, (0, 1, 2))),
                              (from_cycles(4, (0, 1)), identity_perm(4), from_cycles(4, (0, 1)))]):
        out[f"repeated_{i}"] = PermAction(4, gens)
    for action in (PermAction(0, ()), PermAction(0, ((), ())), PermAction(1, ()),
                   PermAction(1, ((0,),)), PermAction(2, ()), PermAction(2, ((1, 0),)),
                   PermAction(2, ((0, 1), (1, 0), (1, 0)))):
        out[f"points_{action.n_points}_{len(action.generators)}"] = action
    return out


CORPUS = _corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_views_equal_the_dict_builder(name):
    real = orbit_atoms(CORPUS[name])
    H = real.hypergroupoid
    src = tuple(real.point_orbit[y] for _, y in real.representative)
    mu, comp = dict_pair_products(real.membership, real.n_points, real.representative, src)
    W = weights(real)
    # equal dicts with equal item order
    assert list(mu_dict(H, W.values).items()) == list(mu.items())
    assert list(W.mu.items()) == list(mu.items())
    assert list(comp_dict(H).items()) == list(comp.items())
    # equal composition sets are one object, as in the oracle
    seen: dict[frozenset[int], frozenset[int]] = {}
    for cs in H.pair_table[0]:
        assert seen.setdefault(cs, cs) is cs
    # the rows are the oracle's mu keys, the values its values
    b_, a_, c_ = H.rows
    assert list(zip(c_, b_, a_)) == list(mu)
    assert list(W.values) == list(mu.values())
    assert H.pair_starts == [i for i, pair in enumerate(zip(b_, a_))
                             if i == 0 or pair != (b_[i - 1], a_[i - 1])]
    assert W.left == tuple(mu.get((H.unit_arrow[H.src[g]], H.star[g], g), 0)
                           for g in range(H.n_arrows))
    assert W.right == tuple(mu.get((H.unit_arrow[H.tgt[g]], g, H.star[g]), 0)
                            for g in range(H.n_arrows))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_identity_rows_are_counted_apart_in_table_order(name):
    # the identity rows and values counted with the realization are the
    # oracle's mu entries at identity arrows, in its order, and the
    # identity subsequence of the whole table once that is built
    real = orbit_atoms(CORPUS[name])
    H, W = real.hypergroupoid, weights(real)
    assert not {"rows", "keys"} & vars(H).keys()
    assert "values" not in vars(W) and real.table.cache_info().currsize == 0
    src = tuple(real.point_orbit[y] for _, y in real.representative)
    mu, _ = dict_pair_products(real.membership, real.n_points, real.representative, src)
    units = set(H.unit_arrow)
    assert list(zip(*H.identity_rows, real.identity_values)) == [
        (b, a, c, v) for (c, b, a), v in mu.items() if c in units]
    assert W.identity_values == real.identity_values
    at = [i for i, c in enumerate(H.rows[2]) if c in units]
    assert H.identity_index == at
    assert tuple(map(tuple, H.identity_rows)) == tuple(tuple(col[i] for i in at) for col in H.rows)
    assert real.identity_values == tuple(W.values[i] for i in at)
    assert W.values is real.table()[1]


def _built(monkeypatch, argv):
    """(code, built parts) of one in-process call: for the realization
    and weighted table the call made, which of the whole table's parts
    exist."""
    made = []

    def record(func):
        def wrapped(*args):
            made.append(func(*args))
            return made[-1]
        return wrapped

    monkeypatch.setattr(cli, "orbit_atoms", record(orbit_atoms))
    monkeypatch.setattr(cli, "weights", record(weights))
    code = cli.main(argv)
    real, W = made
    parts = (("rows", W.base, "rows"), ("W.values", W, "values"), ("W.mu", W, "mu"))
    built = {name for name, obj, attr in parts if attr in vars(obj)}
    # read after the call, which builds the table if the call did not
    assert W.base is real.hypergroupoid and W.values is real.table()[1]
    return code, built


def _identity_only_calls(path, formats=("table", "json")):
    path = str(path)
    for fmt in formats:
        yield ["atoms", path, "--format", fmt]
        yield ["kms", path, "--format", fmt]
        yield ["evolve", path, "--t", "0.5", "--element", "[a1]", "--format", fmt]


@pytest.mark.parametrize("path", ACTIONS, ids=lambda p: p.stem)
def test_atoms_kms_and_evolve_build_no_table(path, monkeypatch, capsys):
    for argv in _identity_only_calls(path):
        assert _built(monkeypatch, argv) == (0, set()), argv
    capsys.readouterr()


def test_atoms_kms_and_evolve_build_no_table_at_s6_regular(tmp_path, monkeypatch, capsys):
    # 720 arrows: the whole table would be 518 400 rows
    path = tmp_path / "s6_regular.json"
    path.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "coset", "name": "s6_regular", "degree": 6,
        "group_generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]],
        "subgroups": [{"name": "e", "generators": []}]}))
    for argv in _identity_only_calls(path, formats=("json",)):
        assert _built(monkeypatch, argv) == (0, set()), argv
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] != "kms" or (doc["checked"], doc["ok"]) == (720 * 720, True)


def test_algebra_check_site_and_convolve_build_the_table(monkeypatch, capsys):
    path = str(DATA / "s3_cosets.json")
    # each reads the table's columns and none builds the mu dict
    table = {"rows", "W.values"}
    assert _built(monkeypatch, ["algebra", path]) == (0, table)
    assert _built(monkeypatch, ["algebra", path, "--format", "json"]) == (0, table)
    assert _built(monkeypatch, ["check", path]) == (0, table)
    assert _built(monkeypatch, ["site", path]) == (0, table)
    assert _built(monkeypatch, ["convolve", path, "--f", "[a1]", "--g", "[a1]"]) == (0, table)
    # a call that composes nothing builds the table all the same
    assert _built(monkeypatch, ["convolve", path, "--f", "0", "--g", "[a1]"]) == (0, table)
    capsys.readouterr()


# faults in the whole table, which only the commands that build it meet:
# (edit of its rows and values as lists, the error line it gives)
def _swap_first_rows(rows, values):
    for col in (*rows, values):
        col[0], col[1] = col[1], col[0]


def _raise_first_identity_value(rows, values):
    # arrow 0, the orbit of (0, 0), is the identity of the unit of point 0
    values[rows[2].index(0)] += 1


TABLE_FAULTS = {
    "out-of-order": (_swap_first_rows,
                     "error: composition rows must strictly increase by src(b), b, a, c\n"),
    "identity-value": (_raise_first_identity_value,
                       "error: mu values disagree with the identity values counted first\n"),
}


def edited_pair_rows(fault):
    """``_pair_rows`` with the whole table, not the identity rows, edited
    by the named fault of ``TABLE_FAULTS``."""
    edit = TABLE_FAULTS[fault][0]

    def pair_rows(membership, n, reps, by_source, arrows=None):
        rows, values = _pair_rows(membership, n, reps, by_source, arrows)
        if arrows is None:
            rows, values = [list(col) for col in rows], list(values)
            edit(rows, values)
        return rows, values
    return pair_rows


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
def test_a_fault_in_the_whole_table_exits_two_before_any_output(fault, monkeypatch, capsys):
    monkeypatch.setattr(realization, "_pair_rows", edited_pair_rows(fault))
    path = str(DATA / "s3_cosets.json")
    for argv in (["algebra", path], ["algebra", path, "--format", "json"], ["check", path],
                 ["site", path], ["convolve", path, "--f", "[a1]", "--g", "[a1]"]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", TABLE_FAULTS[fault][1]), argv
    # the commands that read only the identity rows never meet it
    for argv in _identity_only_calls(path):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


_EDITED_CALL = """
import sys
import test_pair_rows_oracle
from hyperq import cli, realization
realization._pair_rows = test_pair_rows_oracle.edited_pair_rows(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
def test_a_fault_in_the_whole_table_exits_two_in_a_fresh_interpreter(fault, flags):
    # the checks of a table built on first read are explicit raises, so
    # the refusal must not depend on assertions being enabled
    here = pathlib.Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    for command in ("algebra", "check"):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _EDITED_CALL, fault, command,
             str(DATA / "s3_cosets.json"), "--format", "json"],
            capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", TABLE_FAULTS[fault][1]), command


def test_abstract_inputs_keep_their_composition_dict():
    spec, _ = load_input(str(DATA / "delta_abstract.json"))
    doc = json.loads((DATA / "delta_abstract.json").read_text())
    H = spec.weighted.base
    names = H.arrow_names
    assert [(names[b], names[a]) for b, a in comp_dict(H)] == [
        (rec["left"], rec["right"]) for rec in doc["comp"]]
    assert {(names[c], names[b], names[a]): v for (c, b, a), v in spec.weighted.mu.items()} == {
        (rec["a"], rec["g"], rec["gp"]): rec["value"] for rec in doc["mu"]}
