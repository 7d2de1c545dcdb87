"""Coset stabilizers from the subgroups, against Schreier's generators.

A coset input's action carries, for each coset space G/K, generators of
the stabilizer of its least point eK, which is K: the images of K's
generators.  ``orbit_atoms`` reads the suborbits off them.  The oracle
is the same action built from its generators alone, which takes
Schreier's generators instead.  Both must give the same ``membership``, ``representative``,
``orbit_size``, identity rows and identity values, on the data files,
the realization ladder and two seeded batteries of coset specs.
"""

import dataclasses
import json

import pytest

from conftest import DATA
from hyperq.fixtures import random_coset_specs
from hyperq.io import load_input
from hyperq.realization import (
    PermAction,
    _pair_orbits,
    _point_orbits,
    coset_space,
    coset_union_action,
    disjoint_union,
    orbit_atoms,
)
from test_pair_orbits_oracle import LADDER

COSETS = [path for path in sorted(DATA.glob("*.json"))
          if json.loads(path.read_text())["kind"] == "coset"]


def _realized(real):
    H = real.hypergroupoid
    return (real.membership, real.representative, real.orbit_size,
            H.identity_rows, real.identity_values)


def _schreier_side(action: PermAction) -> PermAction:
    return PermAction(action.n_points, action.generators)


def _with_stabilizers(action: PermAction, stabilizers) -> PermAction:
    """The action with the given stabilizers, set as ``coset_union_action``
    sets them; no argument of the library can give them."""
    out = _schreier_side(action)
    object.__setattr__(out, "stabilizers", stabilizers)
    return out


def _assert_same_as_schreier(action: PermAction):
    assert action.stabilizers is not None
    assert _schreier_side(action).stabilizers is None
    assert _realized(orbit_atoms(action)) == _realized(orbit_atoms(_schreier_side(action)))


@pytest.mark.parametrize("path", COSETS, ids=lambda p: p.stem)
def test_data_cosets(path):
    _assert_same_as_schreier(load_input(str(path))[0].action)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_cosets(name):
    _assert_same_as_schreier(coset_union_action(LADDER[name]))


@pytest.mark.parametrize("seed, max_points", [(13, 60), (99, 80)])
def test_random_coset_specs(seed, max_points):
    for spec in random_coset_specs(300, seed=seed, max_points=max_points):
        _assert_same_as_schreier(coset_union_action(spec))


def test_coset_space_keeps_and_disjoint_union_drops_stabilizers():
    spec = LADDER["s5_regular_points"]
    parts = [coset_space(spec, k) for k in range(len(spec.subgroups))]
    assert all(len(part.stabilizers) == 1 for part in parts)
    union = disjoint_union(parts)
    assert union.stabilizers is None
    # the field is not compared
    assert union == coset_union_action(spec)
    _assert_same_as_schreier(parts[1])


def _labels(action: PermAction) -> list[int]:
    """The pair-orbit labels, before any table is built from them."""
    _, unit_points = _point_orbits(action.n_points, action.generators)
    return _pair_orbits(action, unit_points)[0]


def test_a_dropped_generator_changes_the_labels():
    action = coset_union_action(LADDER["s7_3subsets"])
    (stabilizer,) = action.stabilizers
    fewer = _with_stabilizers(action, (stabilizer[:-1],))
    assert _labels(fewer) != _labels(action) == _labels(_schreier_side(action))


def test_stabilizers_are_not_an_argument():
    action = coset_union_action(LADDER["s5_regular_points"])
    # replace starts again from the generators: no stale stabilizers
    assert dataclasses.replace(action).stabilizers is None
    assert dataclasses.replace(action, generators=action.generators[:1]).stabilizers is None
    with pytest.raises(TypeError):
        PermAction(action.n_points, action.generators, action.stabilizers)
    with pytest.raises(TypeError):
        PermAction(action.n_points, action.generators, stabilizers=action.stabilizers)
    with pytest.raises(ValueError):
        dataclasses.replace(action, stabilizers=None)


def test_malformed_stabilizers_are_refused():
    action = coset_union_action(LADDER["s5_regular_points"])
    with pytest.raises(ValueError, match="one tuple per point orbit"):
        orbit_atoms(_with_stabilizers(action, action.stabilizers[:1]))
    moving = action.generators[1]
    with pytest.raises(ValueError, match="moves point 0"):
        orbit_atoms(_with_stabilizers(action, ((moving,), ())))
