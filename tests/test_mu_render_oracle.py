"""The structure-constant table of ``algebra``, against its row-sorted form.

``cmd_algebra`` writes the mu table one arrow g at a time: the rows of
one g are consecutive and already in (g', a) order, so it reorders only
the g blocks and writes each block from pieces pre-formatted per arrow
name and per value.  The oracle here is the rendering it replaced: all
rows stably sorted by g, one JSON record per row from one template, and
the table format's mu rows laid out by ``_table``.  Both must print the
same bytes in both formats on the fixtures, the ladder's regular
actions, seeded coset tables on several units (where src is not
monotone in arrow id, so the g blocks are out of row order), and
abstract tables with infinite, zero and 20-digit values, names that need
JSON escapes or padding, an empty table, a table of one row, and g
blocks of a single row, which ``_mu_blocks`` gathers by one index.
"""

import contextlib
import io
import json
import sys

import pytest

from hyperq import cli
from hyperq.extnat import INF, extnat_to_json
from hyperq.fixtures import random_coset_specs
from hyperq.hypergroupoid import gatherer
from hyperq.io import load_input
from hyperq.realization import CosetSpec, coset_union_action, orbit_atoms

from conftest import DATA
from table_dicts import comp_dict
from test_pair_orbits_oracle import LADDER

_MU_RECORD = '    {\n      "a": %s,\n      "g": %s,\n      "gp": %s,\n      "value": %s\n    }'


def _mu_rows(W):
    """(g, g', a, <a|g,g'>) for every structure constant: the rows, which
    run by src(g), g, g' and a, stably reordered by g."""
    g_, gp_, a_ = W.base.rows
    at = gatherer(sorted(range(len(a_)), key=g_.__getitem__))
    return zip(at(g_), at(gp_), at(a_), at(W.values))


def _mu_chunks(names, mu_rows):
    """The ``mu`` array, one template record per row."""
    enc = [json.encoder.encode_basestring_ascii(name) for name in names]
    sep = "[\n"
    for g, gp, a, v in mu_rows:
        yield sep + _MU_RECORD % (enc[a], enc[g], enc[gp], '"inf"' if v is INF else v)
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def _table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*headers).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    out += [fmt.format(*row).rstrip() for row in rows]
    return out


def algebra_oracle(path, fmt) -> str:
    """The stdout of ``algebra`` as the row-sorting renderer wrote it."""
    ctx = cli.Context(str(path))
    H, W = ctx.base, ctx.weighted
    wrows = [[H.arrow_names[g], str(W.left[g]), str(W.right[g]), cli._chi_str(W, g)]
             for g in range(H.n_arrows)]
    mu_rows = _mu_rows(W)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if fmt == "json":
            payload = {
                "atoms": [{"id": r[0], "src": r[1], "tgt": r[2], "star": r[3]}
                          for r in cli._atoms_rows(ctx)],
                "weights": [{"id": r[0], "left": extnat_to_json(W.left[g]),
                             "right": extnat_to_json(W.right[g]), "chi": r[3]}
                            for g, r in enumerate(wrows)],
                "mu": _mu_chunks(H.arrow_names, mu_rows),
            }
            cli._emit_json(ctx.report("algebra", payload))
        else:
            lines = ctx.header("algebra")
            lines += _table(["id", "src", "tgt", "star", "size", "rep"], cli._atoms_rows(ctx))
            lines.append("")
            lines += _table(["id", "left", "right", "chi"], wrows)
            lines.append("")
            lines += _table(
                ["g", "gp", "a", "mu"],
                [[H.arrow_names[g], H.arrow_names[gp], H.arrow_names[a], str(v)]
                 for g, gp, a, v in mu_rows])
            sys.stdout.write("\n".join(lines) + "\n")
    return out.getvalue()


def _algebra(path, fmt) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["algebra", str(path), "--format", fmt]) == 0
    return out.getvalue()


def _assert_same_as_oracle(path):
    for fmt in ("table", "json"):
        assert _algebra(path, fmt) == algebra_oracle(path, fmt), (path, fmt)


def _coset_file(tmp_path, name, spec: CosetSpec):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "coset", "name": name, "degree": spec.degree,
        "group_generators": [list(p) for p in spec.group_generators],
        "subgroups": [{"name": k, "generators": [list(p) for p in gens]}
                      for k, gens in spec.subgroups]}))
    return path


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
def test_data_files(path):
    _assert_same_as_oracle(path)


@pytest.mark.parametrize("name", ["s4_regular", "s5_regular", "s5_regular_points"])
def test_ladder_actions(tmp_path, name):
    _assert_same_as_oracle(_coset_file(tmp_path, name, LADDER[name]))


def test_seeded_coset_tables_on_several_units(tmp_path):
    chosen = 0
    for k, spec in enumerate(random_coset_specs(40, seed=17)):
        H = orbit_atoms(coset_union_action(spec)).hypergroupoid
        if H.n_units < 2 or list(H.src) == sorted(H.src):
            continue
        # the rows run by src(g) first, so the g blocks are out of g order
        assert list(H.rows[0]) != sorted(H.rows[0])
        _assert_same_as_oracle(_coset_file(tmp_path, f"coset_{k}", spec))
        chosen += 1
        if chosen == 20:
            break
    assert chosen == 20


NAMES = ('say "hi"', "back\\slash", "é", "α→β", "𝔤", "line\nbreak", "tab\t", " ",
         "a_name_wider_than_any_value", "x")
VALUES = (INF, 0, 12345678901234567890, 1, 7, 10 ** 19)


def _abstract_file(tmp_path, name, H, order, values):
    """H as an abstract input with the arrows listed in ``order`` (so that
    H's arrow order[k] gets id k), renamed from NAMES, and row i of the
    table given values[i % len(values)]."""
    rank = {g: k for k, g in enumerate(order)}
    nm = {g: NAMES[k] if k < len(NAMES) else f"n{k}" for g, k in rank.items()}
    b_, a_, c_ = H.rows
    obj = {
        "schema": "hyperq/1", "kind": "abstract", "name": name,
        "units": list(H.unit_names),
        "arrows": [{"name": nm[g], "src": H.unit_names[H.src[g]],
                    "tgt": H.unit_names[H.tgt[g]], "star": nm[H.star[g]]} for g in order],
        "unit_arrows": {u: nm[H.unit_arrow[e]] for e, u in enumerate(H.unit_names)},
        "comp": [{"left": nm[b], "right": nm[a], "result": [nm[c] for c in cs]}
                 for (b, a), cs in comp_dict(H).items()],
        "mu": [{"a": nm[c], "g": nm[b], "gp": nm[a],
                "value": extnat_to_json(values[i % len(values)])}
               for i, (b, a, c) in enumerate(zip(b_, a_, c_))],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("fixture", ["s3_mixed", "s3_cosets", "inf_abstract", "hg3_mutated"])
@pytest.mark.parametrize("shuffle", ["ids", "reversed"])
def test_abstract_tables_with_odd_names_and_values(tmp_path, fixture, shuffle):
    spec, _ = load_input(str(DATA / f"{fixture}.json"))
    H = spec.weighted.base if spec.weighted is not None else orbit_atoms(spec.action).hypergroupoid
    order = list(range(H.n_arrows))
    if shuffle == "reversed":
        order.reverse()
    for start in range(len(VALUES)):
        values = VALUES[start:] + VALUES[:start]
        _assert_same_as_oracle(_abstract_file(tmp_path, f"{fixture}_{start}", H, order, values))


def test_a_name_absent_from_a_column_does_not_widen_it(tmp_path):
    # the long-named loop w is never a composite, so the a column stays
    # as wide as "i"; the g and gp columns hold it
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "abstract", "name": "narrow", "units": ["e"],
        "arrows": [{"name": "i", "src": "e", "tgt": "e", "star": "i"},
                   {"name": "a_long_loop_name", "src": "e", "tgt": "e",
                    "star": "a_long_loop_name"}],
        "unit_arrows": {"e": "i"},
        "comp": [{"left": g, "right": gp, "result": ["i"]}
                 for g in ("i", "a_long_loop_name") for gp in ("i", "a_long_loop_name")],
        "mu": [{"a": "i", "g": g, "gp": gp, "value": v}
               for (g, gp), v in zip([(g, gp) for g in ("i", "a_long_loop_name")
                                      for gp in ("i", "a_long_loop_name")],
                                     [1, "inf", 0, 12345678901234567890])]}))
    _assert_same_as_oracle(path)
    assert "\ni                 a_long_loop_name  i  inf\n" in _algebra(path, "table")


def test_an_empty_table(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "abstract", "name": "empty", "units": [],
        "arrows": [], "unit_arrows": {}, "comp": [], "mu": []}))
    _assert_same_as_oracle(path)
    assert '"mu": [],' in _algebra(path, "json")
    assert _algebra(path, "table").endswith("\ng  gp  a  mu\n-  --  -  --\n")


def test_a_one_row_table(tmp_path):
    # the trivial group on one point: one arrow, one row, one g block
    path = _coset_file(tmp_path, "point", CosetSpec(1, (), (("e", ()),)))
    assert tuple(map(tuple, cli.Context(str(path)).base.rows)) == ((0,), (0,), (0,))
    _assert_same_as_oracle(path)
    assert _algebra(path, "table").endswith("\ng   gp  a   mu\n--  --  --  --\na0  a0  a0  1\n")


def test_g_blocks_of_one_row(tmp_path):
    # the unit f has only its identity j, so the g block of j is the one
    # row (j, j, j), next to blocks of two and three rows on the unit e
    path = tmp_path / "one_row_blocks.json"
    comp = {("i", "i"): ["i"], ("i", "d"): ["d"], ("d", "i"): ["d"], ("d", "d"): ["i", "d"],
            ("j", "j"): ["j"]}
    path.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "abstract", "name": "one_row_blocks", "units": ["e", "f"],
        "arrows": [{"name": "i", "src": "e", "tgt": "e", "star": "i"},
                   {"name": "j", "src": "f", "tgt": "f", "star": "j"},
                   {"name": "d", "src": "e", "tgt": "e", "star": "d"}],
        "unit_arrows": {"e": "i", "f": "j"},
        "comp": [{"left": g, "right": gp, "result": cs} for (g, gp), cs in comp.items()],
        "mu": [{"a": a, "g": g, "gp": gp, "value": v} for a, g, gp, v in [
            ("i", "i", "i", 1), ("d", "i", "d", 1), ("d", "d", "i", 1),
            ("i", "d", "d", 2), ("d", "d", "d", 12345678901234567890), ("j", "j", "j", "inf")]]}))
    g_ = cli.Context(str(path)).base.rows[0]
    assert sorted(g_.count(g) for g in set(g_)) == [1, 2, 3]
    _assert_same_as_oracle(path)
