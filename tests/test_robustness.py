"""Robustness of every command against malformed inputs.

A hypothesis property mutates one field of a fixture in ``tests/data``:
it replaces the value at one path of the JSON document (a top-level
field, a record, or a field inside a record) by another JSON value, or
deletes it.  Abstract tables are mutated anywhere; ``action`` and
``coset`` inputs in their point count, generator lists, degree and
subgroup records.  ``hyperq check`` on the result, run in process, must
exit 0 (the mutation left a valid table whose laws hold), exit 1 naming
only laws of its report, or exit 2 with a one-line input error that
names the rejected field.  It must never raise.  A second property runs
``algebra``, ``kms``, ``evolve``, ``convolve`` and ``site`` on the same
mutants: each exits 0, 1 (``kms`` only, naming ``kms``) or 2 with a
one-line error, and never raises.

A new point count is a small one or one whose square exceeds
``sys.maxsize``, which is refused.  A count in between is accepted and
allocates a label per ordered pair of points before anything else is
checked, which no test can afford at the sizes a strategy draws.
"""

import contextlib
import io
import json
import math
import re
import sys

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
MUTABLE = {"abstract": None, "action": ("points", "generators"),
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
    r"|points|degree|generators?|group_generators|subgroups?)\b")


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
    if path == ("points",):
        refused = math.isqrt(sys.maxsize) + 1
        values = (st.integers(-3, 8) | st.integers(refused, 10 ** 20)
                  | st.none() | st.booleans() | st.floats(allow_nan=False) | strings)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(values)
    return name, path, doc


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_refused(label, out, message):
    """A one-line refusal on stderr and nothing on stdout."""
    assert out == "", label
    assert message.startswith(("input error: ", "error: ")), label
    assert message.count("\n") == 1, label


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=mutated_tables())
def test_check_survives_one_field_mutations(case, tmp_path_factory):
    name, path, doc = case
    target = tmp_path_factory.getbasetemp() / "mutated.json"
    target.write_text(json.dumps(doc))
    code, out, message = _run(["check", str(target)])
    label = (name, path, message)
    if code == 0:
        assert message == "", label
    elif code == 1:
        assert message.startswith("check failed: ") and message.endswith("\n"), label
        failed = message[len("check failed: "):-1].split(", ")
        assert set(failed) <= LAWS, label
    else:
        assert code == 2, label
        _assert_refused(label, out, message)
        assert FIELD_WORDS.search(message), label


def _element(doc) -> str:
    """A one-arrow literal on the first arrow the document names, if any."""
    arrows = doc.get("arrows")
    if isinstance(arrows, list) and arrows and isinstance(arrows[0], dict):
        name = arrows[0].get("name")
        if isinstance(name, str) and re.fullmatch(r"[A-Za-z0-9_.'-]+", name):
            return f"[{name}]"
    return "[a1]"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=mutated_tables())
def test_other_commands_survive_one_field_mutations(case, tmp_path_factory):
    name, path, doc = case
    target = tmp_path_factory.getbasetemp() / "mutated_other.json"
    target.write_text(json.dumps(doc))
    elem = _element(doc)
    for argv in (["algebra", str(target), "--format", "json"],
                 ["kms", str(target)],
                 ["evolve", str(target), "--t", "0.5", "--element", elem],
                 ["convolve", str(target), "--f", f"2*{elem}", "--g", elem],
                 ["site", str(target)]):
        code, out, message = _run(argv)
        label = (name, path, argv[0], message)
        assert "Traceback" not in message, label
        if code == 0:
            assert message == "", label
        elif code == 1:
            assert argv[0] == "kms" and message.startswith("check failed: kms"), label
            assert message.count("\n") == 1, label
        else:
            assert code == 2, label
            _assert_refused(label, out, message)
