"""One walk fills ``membership`` for both kinds of input.

``_pair_orbits`` labels the least point's row of each point orbit by the
stabilizer's suborbits and writes every other row by one breadth-first
walk that carries rows.  Only the stabilizer's generators differ by
input kind: a coset input carries them, so ``_schreier`` must never run
on one, and an action given by its generators alone searches for them
once per point orbit.  ``tests/test_stabilizers_oracle.py`` checks that
the two kinds give the same ``membership``.
"""

import json

import pytest

from conftest import DATA
from hyperq import realization
from hyperq.fixtures import random_coset_specs
from hyperq.io import load_input
from hyperq.realization import PermAction, coset_union_action, from_cycles, orbit_atoms
from test_pair_orbits_oracle import LADDER

INPUTS = {path.stem: path for path in sorted(DATA.glob("*.json"))
          if json.loads(path.read_text())["kind"] != "abstract"}


@pytest.fixture()
def schreier_calls(monkeypatch):
    """The base points that ``_schreier`` is called at, in call order."""
    calls = []
    search = realization._schreier

    def counted(generators, x0, n):
        calls.append(x0)
        return search(generators, x0, n)

    monkeypatch.setattr(realization, "_schreier", counted)
    return calls


def _coset_actions():
    for path in INPUTS.values():
        action = load_input(str(path))[0].action
        if action.stabilizers is not None:
            yield path.stem, action
    for name, spec in sorted(LADDER.items()):
        yield name, coset_union_action(spec)
    for k, spec in enumerate(random_coset_specs(40, seed=23)):
        yield f"random_{k}", coset_union_action(spec)


def test_no_schreier_search_on_a_coset_input(schreier_calls):
    names = []
    for name, action in _coset_actions():
        orbit_atoms(action)
        assert schreier_calls == [], name
        names.append(name)
    assert {"s3_cosets", "s3_mixed", "s3_regular", *LADDER} <= set(names)


def _generator_actions():
    yield "trivial2", load_input(str(INPUTS["trivial2"]))[0].action
    for name, action in _coset_actions():
        yield name, PermAction(action.n_points, action.generators)
    yield "fixed_points", PermAction(7, (from_cycles(7, (0, 1, 2)), from_cycles(7, (3, 4))))
    yield "no_generators", PermAction(3, ())


def test_one_schreier_search_per_point_orbit_of_an_action(schreier_calls):
    for name, action in _generator_actions():
        schreier_calls.clear()
        real = orbit_atoms(action)
        assert action.stabilizers is None, name
        assert schreier_calls == [points[0] for points in real.unit_points], name
