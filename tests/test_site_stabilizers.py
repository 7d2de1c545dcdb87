"""The hom counts of the site, against the point stabilizers.

On a realized table the object {e} is a point orbit X_e, and an element
of hom({e}, {e'}) is a G-map X_e -> X_e'.  Such a map is fixed by the
image y of one point x of X_e, and y may be any point of X_e' that
Stab(x) fixes.  A map out of a union of orbits is a map out of each, and
a map into a union of orbits lands in one of them, so

    |hom(q, q')| = prod over e in q of (sum over e' in q' of |hom({e}, {e'})|).

``site`` must give these counts at every object pair of every realized
table here, all of which it answers: the tests/data actions and seeded
coset tables, far past the reach of the 2**n oracle in
``tests/test_site_oracle.py``.  The reversed count, the points of X_e
fixed by a stabilizer in X_e', differs from it on some of these tables,
so the orientation is tested too.
"""

from math import prod

import pytest

from hyperq.fixtures import random_coset_specs
from hyperq.hypergroupoid import to_quantale
from hyperq.io import load_input
from hyperq.quantale import site
from hyperq.realization import coset_union_action, orbit_atoms
from stabilizer_oracles import stabilizers
from test_pair_orbits_oracle import ACTIONS


def _site_counts(action) -> bool:
    """The hom counts of ``site`` on the realized table, held to the
    stabilizers at every object pair; whether the reversed count gives
    them too."""
    real = orbit_atoms(action)
    H = real.hypergroupoid
    S = site(to_quantale(H))
    stabilizer = stabilizers(action.generators, action.n_points)

    def maps(u, v):
        """The points of orbit v fixed by the stabilizer of orbit u's least point."""
        x = stabilizer[real.unit_points[u][0]]
        return sum(x & ~stabilizer[y] == 0 for y in real.unit_points[v])

    def counts(hom):
        """|hom(q, q')| from the hom counts between single orbits."""
        unit_of = {e: u for u, e in enumerate(H.unit_arrow)}
        return [prod(sum(hom(unit_of[e], unit_of[e2]) for e2 in q2) for e in q)
                for q in S.objects for q2 in S.objects]

    assert [len(S.hom(q, q2)) for q in S.objects for q2 in S.objects] == counts(maps)
    return counts(lambda u, v: maps(v, u)) == counts(maps)


@pytest.mark.parametrize("path", ACTIONS, ids=lambda p: p.stem)
def test_data_actions(path):
    _site_counts(load_input(str(path))[0].action)


def test_random_coset_specs():
    reversed_agrees = [_site_counts(coset_union_action(spec))
                       for spec in random_coset_specs(300, seed=13)]
    assert 0 < reversed_agrees.count(False) < len(reversed_agrees)
