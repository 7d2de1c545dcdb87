"""Q10, the generator condition, against the point stabilizers.

On a realized table an atom, the orbit of its representative (x, y),
factors as u v* with u, v simple exactly when some point z has
Stab(z) in Stab(x) and Stab(y) (``stabilizer_oracles``).  So
``is_grothendieck`` must find a factorisation at exactly those atoms,
and hold exactly when every atom has one.  Tables that fail it are
correct answers, not faults: their point orbits do not generate the
topos of G-sets.
"""

import pytest

from hyperq.fixtures import random_coset_specs
from hyperq.hypergroupoid import to_quantale
from hyperq.io import load_input
from hyperq.quantale import is_grothendieck
from hyperq.realization import coset_union_action, orbit_atoms
from stabilizer_oracles import factors, stabilizers
from test_pair_orbits_oracle import ACTIONS


def _q10(action) -> bool:
    """is_grothendieck on the realized table, held to the stabilizers
    atom by atom."""
    real = orbit_atoms(action)
    stabilizer = stabilizers(action.generators, action.n_points)
    expected = {a for a, (x, y) in enumerate(real.representative)
                if factors(stabilizer, x, y)}
    ok, witness = is_grothendieck(to_quantale(real.hypergroupoid))
    assert set(witness) == expected
    assert ok == (len(expected) == real.n_arrows)
    return ok


@pytest.mark.parametrize("path", ACTIONS, ids=lambda p: p.stem)
def test_data_actions(path):
    ok = _q10(load_input(str(path))[0].action)
    assert ok is (path.stem != "s3_cosets")


def test_random_coset_specs():
    verdicts = [_q10(coset_union_action(spec)) for spec in random_coset_specs(300, seed=13)]
    assert 0 < verdicts.count(False) < len(verdicts)
