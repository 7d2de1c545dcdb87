"""The JSON emitter writes exactly what json.dumps(indent=2,
sort_keys=True) writes.

``_emit_json`` encodes the report in one recursive pass and writes the
pre-encoded chunks of the algebra report's ``mu`` array as they come,
one chunk per arrow g.
Its output must equal the one-shot ``json.dumps`` of the same object,
for every command's report on every fixture, for any nesting of the
value types a report holds, and for the edge cases of the ``mu``
template: infinite values, arrow names that need escaping, and an
empty table.
"""

import contextlib
import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import cli
from hyperq.extnat import INF, extnat_to_json

from test_golden import CALLS, _replay


def _emitted(obj) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(obj)
    return out.getvalue()


def _canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


JSON_CALLS = [c for c in CALLS if c["format"] == "json"]


@pytest.mark.parametrize("call", JSON_CALLS,
                         ids=[f"{c['command']}-{c['file']}" for c in JSON_CALLS])
def test_every_json_report_is_canonical(call):
    stdout = _replay(call)["stdout"]
    if call["exit"] == 2:
        assert stdout == ""
    else:
        assert stdout == _canonical(json.loads(stdout))


NAMES = ("e", 'say "hi"', "back\\slash", "é", "α→β", "𝔤", "line\nbreak", "tab\t", " ")


def _mu_case(keys, values):
    """The report with ``mu`` as the chunks of a table that holds the rows
    of each g together, the g blocks in descending order, and the same
    report with ``mu`` as plain records, by g and then in key order."""
    mu = dict(zip(keys, values))
    rows = sorted(keys, key=lambda key: -key[1])
    c_, b_, a_ = zip(*rows) if rows else ((), (), ())
    # by_source[0] lists the g blocks in table order, as a hypergroupoid's
    # ranking of its arrows does
    W = SimpleNamespace(base=SimpleNamespace(rows=(b_, a_, c_), arrow_names=NAMES,
                                             by_source=(list(dict.fromkeys(b_)), None)),
                        values=[mu[key] for key in rows])
    encoded = {"command": "algebra", "mu": cli._mu_chunks(W),
               "weights": [{"id": NAMES[1], "chi": "-"}], "ok": True}
    plain = {**encoded, "mu": [{"a": NAMES[a], "g": NAMES[g], "gp": NAMES[gp],
                                "value": extnat_to_json(mu[(a, g, gp)])}
                               for a, g, gp in sorted(keys, key=lambda key: key[1])]}
    return encoded, plain


@pytest.mark.parametrize("keys, values", [
    pytest.param([], [], id="empty"),
    pytest.param([(0, 0, 0)], [1], id="one"),
    pytest.param([(0, 0, 0), (3, 1, 2), (8, 7, 6)], [INF, 0, 12345678901234567890],
                 id="inf-and-big"),
    pytest.param([(a, g, (a + g) % len(NAMES)) for a in range(len(NAMES))
                  for g in range(len(NAMES))],
                 [INF if k % 7 == 0 else k for k in range(len(NAMES) ** 2)],
                 id="every-name"),
])
def test_mu_template_matches_json_dumps(keys, values):
    encoded, plain = _mu_case(keys, values)
    assert _emitted(encoded) == _canonical(plain)


def test_emitter_matches_json_dumps_on_plain_values():
    obj = {"z": [], "a": {}, "m": {"b": [1, {"y": None, "x": "\n"}], "a": 0.5},
           'k"eyé': "v", "n": [[], [{}]]}
    assert _emitted(obj) == _canonical(obj)
    assert _emitted({}) == _canonical({})


# strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.text(st.sampled_from('ab"\\/ \n\t\x00\x1f\x7fé\u2028€𝔤\ud800'), max_size=6)
SCALARS = (TEXT | st.integers(min_value=-(2**70), max_value=2**70) | st.booleans()
           | st.none() | st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=15)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(TEXT, VALUES, max_size=4))
def test_emitter_matches_json_dumps_on_any_report_shape(obj):
    assert _emitted(obj) == _canonical(obj)
