"""A coset input is walked coset by coset, and its group is never listed.

``coset_union_action`` lists only each subgroup K, to read its stabilizer
chain, and walks the cosets of K from K.  The group G is listed only
when listing K passes the order bound, to tell which refusal fires.
``tests/test_realization.py`` holds the walk's points, generators and
stabilizers to a union-find over the listed group.
"""

import pytest

from hyperq import realization
from hyperq.errors import OrderBoundExceeded
from hyperq.realization import CosetSpec, coset_union_action, from_cycles
from test_pair_orbits_oracle import LADDER


@pytest.fixture()
def listed(monkeypatch):
    """The generators of each group that ``_bfs`` lists, in call order."""
    calls = []
    lister = realization._bfs

    def counted(generators, degree, order_bound, codec):
        calls.append(tuple(map(tuple, generators)))
        return lister(generators, degree, order_bound, codec)

    monkeypatch.setattr(realization, "_bfs", counted)
    return calls


def test_the_group_is_never_listed_for_s7_on_3_subsets(listed):
    spec = LADDER["s7_3subsets"]
    assert coset_union_action(spec).n_points == 35
    assert listed == [spec.subgroups[0][1]]


@pytest.mark.parametrize("name", sorted(LADDER))
def test_each_subgroup_is_listed_once(listed, name):
    spec = LADDER[name]
    coset_union_action(spec)
    assert listed == [k_gens for _, k_gens in spec.subgroups]


def _sym(degree):
    return (from_cycles(degree, (0, 1)), from_cycles(degree, tuple(range(degree))))


def test_the_group_is_listed_only_when_the_subgroup_passes_the_bound(listed):
    # S8 as a subgroup of C8: K passes the bound, so G is listed and is
    # small, and the generator is refused as outside the group
    c8 = (from_cycles(8, tuple(range(8))),)
    with pytest.raises(ValueError, match="subgroup 'k' generator outside the group"):
        coset_union_action(CosetSpec(8, c8, (("k", _sym(8)),)))
    assert listed == [_sym(8), c8]
    # S8 on the cosets of (0 1): the walk passes the bound, and G is not listed
    listed.clear()
    with pytest.raises(OrderBoundExceeded, match="group order exceeds bound 10000"):
        coset_union_action(CosetSpec(8, _sym(8), (("k", (from_cycles(8, (0, 1)),)),)))
    assert listed == [(from_cycles(8, (0, 1)),)]


def test_the_order_bound_counts_the_subgroup_too():
    # S8 on the 8 cosets of S7: few points, but 8 * 5 040 elements
    s7 = tuple(p + (7,) for p in _sym(7))
    with pytest.raises(OrderBoundExceeded, match="group order exceeds bound 10000"):
        coset_union_action(CosetSpec(8, _sym(8), (("k", s7),)))
    # S7 on the 7 cosets of S6 is within it
    s6 = tuple(p + (6,) for p in _sym(6))
    assert coset_union_action(CosetSpec(7, _sym(7), (("k", s6),))).n_points == 7
