"""Robustness of ``check`` against malformed inputs.

A hypothesis property mutates one field of a fixture in ``tests/data``:
it replaces the value at one path of the JSON document (a top-level
field, a record, or a field inside a record) by another JSON value, or
deletes it.  Abstract tables are mutated anywhere; ``action`` and
``coset`` inputs in their generator lists, degree and subgroup records.
``hyperq check`` on the result, run in process, must exit 0 (the
mutation left a valid table whose laws hold), exit 1 naming only laws of
its report, or exit 2 with a one-line input error that names the
rejected field.  It must never raise.

The point count of an ``action`` input is not mutated: a large one is
accepted and allocates a label per ordered pair of points before
anything is checked.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from hyperq import cli
from hyperq.algebra import validate_weights
from hyperq.hypergroupoid import check_hg_axioms, to_quantale
from hyperq.io import load_input
from hyperq.quantale import check_axioms

FIXTURES = {_path.stem: json.loads(_path.read_text()) for _path in sorted(DATA.glob("*.json"))}
# the top-level fields a mutation may reach, by kind; None for any
MUTABLE = {"abstract": None, "action": ("generators",),
           "coset": ("degree", "group_generators", "subgroups")}

_spec, _ = load_input(str(DATA / "delta_abstract.json"))
LAWS = {r.name for report in (check_axioms(to_quantale(_spec.weighted.base)),
                              check_hg_axioms(_spec.weighted.base),
                              validate_weights(_spec.weighted))
        for r in report.results}

# an input error names the field, record or table part it rejects
FIELD_WORDS = re.compile(
    r"\b(field|schema|kind|units?|arrows?|unit_arrows|src|tgt|star|identity"
    r"|comp|composition|composite|mu|left|right"
    r"|degree|generators?|group_generators|subgroups?)\b")


def _paths(value, prefix=()):
    """Every path below the root of a JSON value, parents first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _names(doc):
    """Strings that a table refers to: its unit and arrow names, its
    kinds and "inf"."""
    out = {"inf", "abstract", "action", "coset", "hyperq/1"}
    out.update(u for u in doc.get("units", []))
    out.update(rec["name"] for rec in doc.get("arrows", []))
    out.update(rec["name"] for rec in doc.get("subgroups", []))
    return sorted(out)


@st.composite
def mutated_tables(draw):
    name = draw(st.sampled_from(sorted(FIXTURES)))
    doc = json.loads(json.dumps(FIXTURES[name]))
    fields = MUTABLE[doc["kind"]]
    path = draw(st.sampled_from([p for p in _paths(doc) if fields is None or p[0] in fields]))
    # values a table could hold (names, small counts, lists of names),
    # then any JSON value
    names = st.sampled_from(_names(doc))
    plausible = (names | st.integers(-1, 3) | st.lists(names, max_size=3)
                 | st.lists(st.integers(-1, 3), max_size=4))
    strings = names | st.text(max_size=3)
    leaves = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
              | st.floats(allow_nan=False) | strings)
    values = plausible | st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=3)
                          | st.dictionaries(strings, children, max_size=3)),
        max_leaves=6)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(values)
    return name, path, doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=mutated_tables())
def test_check_survives_one_field_mutations(case, tmp_path_factory):
    name, path, doc = case
    target = tmp_path_factory.getbasetemp() / "mutated.json"
    target.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(target)])
    message = err.getvalue()
    label = (name, path, message)
    if code == 0:
        assert message == "", label
    elif code == 1:
        assert message.startswith("check failed: ") and message.endswith("\n"), label
        failed = message[len("check failed: "):-1].split(", ")
        assert set(failed) <= LAWS, label
    else:
        assert code == 2, label
        assert out.getvalue() == "", label
        assert message.startswith(("input error: ", "error: ")), label
        assert message.count("\n") == 1, label
        assert FIELD_WORDS.search(message), label
