"""Pair orbits from Schreier rows, against the pair-by-pair walk.

``orbit_atoms`` labels one row per point orbit, the orbits of the
stabilizer of the orbit's least point, and reads every other row of the
orbit through a Schreier tree.  The oracle here is the labelling it
replaced: the next unlabelled pair in row-major order opens the next
orbit, and a breadth-first walk over the generators fills it.  Both must
give the same ``membership``, ``representative`` and ``orbit_size``, and
so the same ``mu`` and ``comp``, in the same order.

The composers of ``perm_mul`` and ``enumerate_group`` are checked at
degrees 0, 1, 2 and 4, where ``itemgetter`` needs its guard, and at 255,
256 and 257, where ``enumerate_group`` stops holding elements as bytes.
"""

import json
import random

import pytest

from conftest import DATA
from hyperq.fixtures import random_coset_specs
from hyperq.hypergroupoid import Hypergroupoid
from hyperq.io import load_input
from hyperq.realization import (
    CosetSpec,
    PermAction,
    _pair_rows,
    coset_union_action,
    enumerate_group,
    from_cycles,
    identity_perm,
    orbit_atoms,
    perm_mul,
    weights,
)
from table_dicts import comp_dict, mu_dict


def _row_major_orbits(action: PermAction):
    """membership, representatives and sizes of the pair orbits, each
    orbit opened at the first unlabelled pair in row-major order."""
    n = action.n_points
    membership = [-1] * (n * n)
    reps, sizes = [], []
    for start in range(n * n):
        if membership[start] >= 0:
            continue
        gid = len(reps)
        membership[start] = gid
        reps.append(divmod(start, n))
        frontier = [reps[-1]]
        count = 1
        while frontier:
            nxt = []
            for x, y in frontier:
                for s in action.generators:
                    i = s[x] * n + s[y]
                    if membership[i] < 0:
                        membership[i] = gid
                        nxt.append((s[x], s[y]))
            count += len(nxt)
            frontier = nxt
        sizes.append(count)
    return membership, reps, sizes


def _assert_same_as_walk(action: PermAction):
    real = orbit_atoms(action)
    membership, reps, sizes = _row_major_orbits(action)
    assert real.membership == membership
    assert real.representative == tuple(reps)
    assert real.orbit_size == tuple(sizes)
    H = real.hypergroupoid
    rows, values = _pair_rows(membership, action.n_points, reps, H.by_source)
    walked = Hypergroupoid(H.unit_names, H.arrow_names, H.src, H.tgt, H.star, H.unit_arrow,
                           rows=rows)
    mu, comp = mu_dict(walked, values), comp_dict(walked)
    assert list(mu_dict(H, weights(real).values).items()) == list(mu.items())
    assert list(comp_dict(H).items()) == list(comp.items())


def _sym(degree):
    return (from_cycles(degree, (0, 1)), from_cycles(degree, tuple(range(degree))))


LADDER = {
    "s4_regular": CosetSpec(4, _sym(4), (("e", ()),)),
    "s5_regular": CosetSpec(5, _sym(5), (("e", ()),)),
    "s5_regular_points": CosetSpec(5, _sym(5), (
        ("e", ()), ("s4", (from_cycles(5, (0, 1)), from_cycles(5, (0, 1, 2, 3)))))),
    "s6_c3_cosets": CosetSpec(6, _sym(6), (("c3", (from_cycles(6, (0, 1, 2)),)),)),
    "s7_3subsets": CosetSpec(7, _sym(7), (("s3xs4", (
        from_cycles(7, (0, 1)), from_cycles(7, (0, 1, 2)),
        from_cycles(7, (3, 4)), from_cycles(7, (3, 4, 5, 6)))),)),
}


ACTIONS = [path for path in sorted(DATA.glob("*.json"))
           if json.loads(path.read_text())["kind"] != "abstract"]


@pytest.mark.parametrize("path", ACTIONS, ids=lambda p: p.stem)
def test_data_actions(path):
    _assert_same_as_walk(load_input(str(path))[0].action)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_actions(name):
    _assert_same_as_walk(coset_union_action(LADDER[name]))


def test_random_coset_specs():
    for spec in random_coset_specs(12, seed=15):
        _assert_same_as_walk(coset_union_action(spec))


def test_intransitive_actions_with_fixed_points():
    _assert_same_as_walk(PermAction(7, (from_cycles(7, (0, 1, 2)), from_cycles(7, (3, 4)))))
    _assert_same_as_walk(PermAction(6, (from_cycles(6, (1, 4)), from_cycles(6, (2, 5)))))
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(2, 9)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(n), rng.randint(0, n))
            p = list(range(n))
            for i, j in zip(moved, moved[1:] + moved[:1]):
                p[i] = j
            gens.append(tuple(p))
        _assert_same_as_walk(PermAction(n, tuple(gens)))


@pytest.mark.parametrize("generators", [
    (),
    (identity_perm(4),),
    (identity_perm(4), identity_perm(4)),
    (from_cycles(4, (0, 1, 2)), from_cycles(4, (0, 1, 2))),
    (from_cycles(4, (0, 1)), identity_perm(4), from_cycles(4, (0, 1))),
])
def test_repeated_identity_and_no_generators(generators):
    _assert_same_as_walk(PermAction(4, generators))


@pytest.mark.parametrize("action", [
    PermAction(0, ()),
    PermAction(0, ((), ())),
    PermAction(1, ()),
    PermAction(1, ((0,),)),
    PermAction(2, ()),
    PermAction(2, ((1, 0),)),
    PermAction(2, ((0, 1), (1, 0), (1, 0))),
])
def test_zero_one_and_two_points(action):
    _assert_same_as_walk(action)


def _compose(p, q):
    return tuple(p[i] for i in q)


def _bfs_elements(gens, degree):
    """Breadth-first from the identity, right-multiplying by the generators
    in input order."""
    elements = [identity_perm(degree)]
    frontier = list(elements)
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = _compose(x, s)
                if y not in elements:
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


@pytest.mark.parametrize("degree", [0, 1, 2, 4, 255, 256, 257])
def test_perm_mul_and_enumerate_group_at_small_degrees(degree):
    # each permutation moves only the top four points, so every group
    # here has order at most 24
    rng = random.Random(degree)
    top = range(max(0, degree - 4), degree)
    perms = []
    for _ in range(6):
        p = list(range(degree))
        moved = list(top)
        rng.shuffle(moved)
        p[top.start:] = moved
        perms.append(tuple(p))
    for p in perms:
        for q in perms:
            assert perm_mul(p, q) == _compose(p, q)
            assert type(perm_mul(p, q)) is tuple
    gen_sets = [(), perms[:1], perms[:2], [perms[0], identity_perm(degree), perms[0]]]
    if degree >= 4:
        gen_sets.append([from_cycles(degree, tuple(top[:2])), from_cycles(degree, tuple(top))])
    for gens in gen_sets:
        assert enumerate_group(gens, degree) == _bfs_elements(gens, degree)
    assert perm_mul((), ()) == ()
    assert perm_mul((0,), (0,)) == (0,)
    assert enumerate_group([(0,)], 1) == [(0,)]
    assert enumerate_group([(1, 0)]) == [(0, 1), (1, 0)]
