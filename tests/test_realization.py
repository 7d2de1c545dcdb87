"""Group enumeration, coset actions, pair orbits and exact counting.

The structure constants carry the whole algebra, so they are checked
five ways here: the per-triple count, the mu table counted as an
intersection-number histogram, the numpy walk and histogram of
``numpy_oracles``, integer incidence-matrix products, and full recounts
at every orbit point on the fixtures small enough to afford it.  Coset
partitions are held to a union-find over the subgroup generators.
"""

import hashlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from hyperq.errors import OrderBoundExceeded
from hyperq.fixtures import (
    random_coset_specs,
    s3_generators,
    s3_mixed_action,
    s3_spec,
    trivial_pair_action,
)
from hyperq.hypergroupoid import check_hg_axioms
from hyperq.io import load_input
from hyperq.realization import (
    CosetSpec,
    PermAction,
    coset_space,
    coset_union_action,
    count_mu,
    disjoint_union,
    enumerate_group,
    from_cycles,
    identity_perm,
    orbit_atoms,
    perm_inv,
    perm_mul,
    weights,
)
from numpy_oracles import membership_matrix, pair_orbits, pair_products
from table_dicts import comp_dict, mu_dict
from test_coset_walk import johnson
from test_pair_orbits_oracle import LADDER


def test_perm_helpers():
    assert from_cycles(3, (0, 1)) == (1, 0, 2)
    assert from_cycles(3, (0, 1, 2)) == (1, 2, 0)
    assert from_cycles(4, (0, 1), (2, 3)) == (1, 0, 3, 2)
    p = (2, 0, 3, 1)
    assert perm_mul(p, perm_inv(p)) == identity_perm(4)
    assert perm_mul(perm_inv(p), p) == identity_perm(4)


def test_enumerate_s3():
    elements = enumerate_group(s3_generators(), 3)
    assert len(elements) == 6
    assert elements[0] == (0, 1, 2)
    assert sorted(elements) == sorted(
        {(a, b, c) for a in range(3) for b in range(3) for c in range(3)
         if len({a, b, c}) == 3})
    # BFS discovery order is part of the contract
    assert elements == enumerate_group(s3_generators(), 3)


def test_enumerate_trivial_and_cyclic():
    assert enumerate_group((), 2) == [(0, 1)]
    assert len(enumerate_group((from_cycles(4, (0, 1, 2, 3)),))) == 4
    with pytest.raises(ValueError):
        enumerate_group(())


def test_enumerate_order_bound():
    with pytest.raises(OrderBoundExceeded):
        enumerate_group(s3_generators(), 3, order_bound=5)


def test_coset_space_of_a_stabilizer():
    elements = enumerate_group(s3_generators(), 3)
    classes, membership = _union_find_cosets(elements, (from_cycles(3, (0, 1)),))
    assert classes == [[0, 1], [2, 4], [3, 5]]
    assert membership == [0, 0, 1, 2, 1, 2]
    spec = CosetSpec(degree=3, group_generators=s3_generators(),
                     subgroups=(("k", (from_cycles(3, (0, 1)),)),))
    action = coset_space(spec, 0)
    assert action == _union_find_coset_space(spec, 0)
    # the least point is K itself, fixed by (0 1)
    assert action.stabilizers == (((0, 2, 1),),)


def _union_find_cosets(elements, k_gens):
    """Left cosets gK merged along right multiplication by the
    generators of K, then ordered by least member."""
    index = {g: i for i, g in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, g in enumerate(elements):
        for k in k_gens:
            j = index[perm_mul(g, tuple(k))]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    buckets: dict[int, list[int]] = {}
    for i in range(len(elements)):
        buckets.setdefault(find(i), []).append(i)
    classes = [sorted(v) for _, v in sorted(buckets.items())]
    membership = [0] * len(elements)
    for c, members in enumerate(classes):
        for i in members:
            membership[i] = c
    return classes, membership


def _union_find_coset_space(spec, k):
    elements = enumerate_group(spec.group_generators, spec.degree, order_bound=50_000)
    index = {g: i for i, g in enumerate(elements)}
    classes, membership = _union_find_cosets(elements, spec.subgroups[k][1])
    gens = tuple(tuple(membership[index[perm_mul(s, elements[c[0]])]] for c in classes)
                 for s in spec.group_generators)
    return PermAction(n_points=len(classes), generators=gens)


def _union_find_stabilizers(spec):
    """Per subgroup K, the images of K's generators on every point of the
    union, each coset space partitioned by the union-find."""
    elements = enumerate_group(spec.group_generators, spec.degree, order_bound=50_000)
    index = {g: i for i, g in enumerate(elements)}
    spaces = [_union_find_cosets(elements, k_gens) for _, k_gens in spec.subgroups]
    offsets = [sum(len(classes) for classes, _ in spaces[:k]) for k in range(len(spaces))]

    def image(h):
        return tuple(offset + membership[index[perm_mul(h, elements[c[0]])]]
                     for offset, (classes, membership) in zip(offsets, spaces) for c in classes)

    return tuple(tuple(map(image, k_gens)) for _, k_gens in spec.subgroups)


def test_coset_partitions_match_the_union_find():
    # the two seeded batteries on which the walk's point order was first
    # checked, and S8 (40 320 elements) on its 70 cosets of S4 x S4
    specs = (random_coset_specs(40, seed=11) + random_coset_specs(300, seed=13)
             + random_coset_specs(300, seed=99, max_points=80)
             + [s3_spec(), LADDER["s7_3subsets"], johnson(8, 4)])
    for spec in specs:
        for k in range(len(spec.subgroups)):
            assert coset_space(spec, k) == _union_find_coset_space(spec, k), spec
        action = coset_union_action(spec)
        assert action == disjoint_union(
            _union_find_coset_space(spec, k) for k in range(len(spec.subgroups)))
        assert action.stabilizers == _union_find_stabilizers(spec), spec
    assert coset_union_action(LADDER["s7_3subsets"]).n_points == 35


@pytest.mark.parametrize("seed, max_points, digest", [
    (13, 60, "3b277acc254a3f4bfcfd2bd34b19ac619f5d4ba881b7ffc64e222d8a8100a745"),
    (99, 80, "cf0caeed1469fb4571300d173f78eccf18b48ccfc7c4bca70a159ef4656877d0"),
])
def test_the_seeded_batteries_are_pinned(seed, max_points, digest):
    # the oracle batteries above; a defect in the coset code that raised
    # while drawing them would have changed which specs they hold
    specs = random_coset_specs(300, seed=seed, max_points=max_points)
    assert hashlib.sha256(repr(specs).encode()).hexdigest() == digest


def _padded(spec: CosetSpec, degree: int) -> CosetSpec:
    """The same groups, with fixed points added up to the given degree."""
    def pad(p):
        return tuple(p) + tuple(range(spec.degree, degree))
    return CosetSpec(degree, tuple(map(pad, spec.group_generators)),
                     tuple((name, tuple(map(pad, gens))) for name, gens in spec.subgroups))


def test_coset_actions_agree_across_the_byte_encoding_bound():
    # degree 300 holds the group elements as tuples, the specs' own degrees as bytes
    for spec in random_coset_specs(40, seed=11) + list(LADDER.values()):
        action, padded = coset_union_action(spec), coset_union_action(_padded(spec, 300))
        assert padded == action, spec
        assert padded.stabilizers == action.stabilizers, spec
        assert orbit_atoms(padded).membership == orbit_atoms(action).membership, spec


def test_coset_space_sizes():
    spec = s3_spec()
    assert coset_space(spec, 0).n_points == 6
    assert coset_space(spec, 1).n_points == 3
    whole = CosetSpec(degree=3, group_generators=s3_generators(),
                      subgroups=(("G", s3_generators()),))
    assert coset_space(whole, 0).n_points == 1


def test_coset_space_rejects_outside_generators():
    spec = CosetSpec(
        degree=4,
        group_generators=(from_cycles(4, (0, 1, 2, 3)),),
        subgroups=(("bad", (from_cycles(4, (0, 1), (2, 3)),)),),
    )
    with pytest.raises(ValueError):
        coset_space(spec, 0)


def test_disjoint_union():
    spec = s3_spec()
    union = disjoint_union((coset_space(spec, 0), coset_space(spec, 1)))
    assert union.n_points == 9
    assert union.generators == s3_mixed_action().generators
    assert coset_union_action(spec).n_points == 9
    single = coset_space(spec, 1)
    assert disjoint_union((single,)) == single
    with pytest.raises(ValueError):
        disjoint_union(())


def test_pair_orbits_of_the_trivial_action(real_pair):
    assert real_pair.n_arrows == 4
    assert real_pair.hypergroupoid.n_units == 2
    assert real_pair.hypergroupoid.unit_arrow == (0, 3)
    assert real_pair.hypergroupoid.star == (0, 2, 1, 3)
    assert real_pair.orbit_size == (1, 1, 1, 1)


def test_pair_orbits_of_the_regular_action(real_regular):
    H = real_regular.hypergroupoid
    assert H.n_units == 1
    assert real_regular.n_arrows == 6
    assert real_regular.orbit_size == (6,) * 6
    assert H.unit_arrow == (0,)
    # the group law: every composition set is a singleton
    assert all(len(cs) == 1 for cs in comp_dict(H).values())


def test_pair_orbits_of_the_coset_action(real_cosets):
    assert real_cosets.n_arrows == 2
    assert real_cosets.orbit_size == (3, 6)
    assert real_cosets.hypergroupoid.star == (0, 1)
    assert real_cosets.hypergroupoid.compose(1, 1) == frozenset((0, 1))


def test_pair_orbits_of_the_mixed_action(real_mixed):
    H = real_mixed.hypergroupoid
    assert H.n_units == 2
    assert real_mixed.n_arrows == 14
    assert H.unit_arrow == (0, 12)
    assert sum(real_mixed.orbit_size) == 81
    assert sorted(real_mixed.orbit_size) == [3] + [6] * 13
    # quotient maps and their adjoints swap under star
    assert {H.star[g] for g in (6, 7, 8)} == {9, 10, 11}
    for g in (6, 7, 8):
        assert (H.src[g], H.tgt[g]) == (1, 0)
        assert (H.src[H.star[g]], H.tgt[H.star[g]]) == (0, 1)


def test_membership_partitions_the_square(all_realized):
    for real in all_realized.values():
        n = real.n_points
        assert len(real.membership) == n * n
        counts = np.bincount(real.membership, minlength=real.n_arrows)
        assert tuple(int(c) for c in counts) == real.orbit_size
        assert min(real.membership) >= 0
        for g, (x, y) in enumerate(real.representative):
            assert real.membership[x * n + y] == g


def test_count_mu_on_cosets(real_cosets):
    assert count_mu(real_cosets, 0, 1, 1) == 2
    assert count_mu(real_cosets, 1, 1, 1) == 1
    assert count_mu(real_cosets, 1, 1, 0) == 1
    assert count_mu(real_cosets, 0, 0, 0) == 1
    # a not in g g' counts zero
    assert count_mu(real_cosets, 0, 1, 0) == 0


def test_count_mu_in_the_group_case(real_regular):
    # <a|g,g'> = 1 iff a = g g', else 0
    H = real_regular.hypergroupoid
    for g in range(6):
        for gp in range(6):
            prod = next(iter(H.compose(g, gp)))
            for a in range(6):
                assert count_mu(real_regular, a, g, gp) == (1 if a == prod else 0)


def test_count_mu_verify_mode(all_realized):
    for real in all_realized.values():
        H = real.hypergroupoid
        for (b, a) in comp_dict(H):
            for c in H.compose(b, a):
                count_mu(real, c, b, a, verify=True)


def test_product_table_matches_per_triple_counts(all_realized):
    # the histogram table against the boolean recount
    for real in all_realized.values():
        H = real.hypergroupoid
        composites: dict[tuple[int, int], set[int]] = {}
        for (c, b, a), v in mu_dict(H, weights(real).values).items():
            composites.setdefault((b, a), set()).add(c)
            assert v == count_mu(real, c, b, a)
            assert v >= 1
        for (b, a), cs in composites.items():
            assert cs == H.compose(b, a)
        assert composites.keys() == comp_dict(H).keys()


_BROKEN_COSETS = """
import dataclasses
from hyperq.errors import HyperqError
from hyperq.fixtures import s3_coset_action
from hyperq.realization import count_mu, orbit_atoms
real = orbit_atoms(s3_coset_action())
broken = list(real.membership)
broken[0 * 3 + 2] = 0
real = dataclasses.replace(real, membership=broken)
assert count_mu(real, 1, 1, 1) == 0
try:
    count_mu(real, 1, 1, 1, verify=True)
except HyperqError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_count_mu_verify_raises_on_a_broken_table(flags):
    # moving one pair out of the off-diagonal orbit makes the count at
    # the representative (0, 1) disagree with the count at (1, 0); the
    # refusal must not depend on assertions being enabled
    proc = subprocess.run([sys.executable, *flags, "-c", _BROKEN_COSETS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "structure constant depends on representative: 0 vs 1\n"


@pytest.fixture(scope="module")
def oracle_realizations():
    """The action fixtures in tests/data, and S5 on itself and on 5
    points (125 points, 132 arrows)."""
    out = {}
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(str(path))
        if spec.action is not None:
            out[path.stem] = orbit_atoms(spec.action)
    assert {"s3_cosets", "s3_mixed", "s3_regular", "trivial2"} <= set(out)
    s5 = (from_cycles(5, (0, 1)), from_cycles(5, (0, 1, 2, 3, 4)))
    s4 = (from_cycles(5, (1, 2)), from_cycles(5, (1, 2, 3, 4)))
    spec = CosetSpec(degree=5, group_generators=s5,
                     subgroups=(("e", ()), ("s4", s4)))
    out["s5_regular_points"] = orbit_atoms(coset_union_action(spec))
    assert out["s5_regular_points"].n_arrows == 132
    return out


def _assert_incidence_identity(real):
    """M_b M_a == sum_c <c|b,a> M_c in int64, for every pair (b, a).

    The products are formed sparsely, for each b and all a at once: each
    (x, t) in b meets each (t, y), which lies in a = m[t, y], so the
    entry (M_b M_a)[x, y] is the number of such meetings at (x, y, a).
    Every entry of every product is compared, not only those at the
    stored representatives."""
    m = membership_matrix(real)
    n, k = real.n_points, real.n_arrows
    orbit_size = np.bincount(m.ravel(), minlength=k)
    by_b: dict[int, list[tuple[int, int, int]]] = {}
    for (c, b, a), v in mu_dict(real.hypergroupoid, weights(real).values).items():
        by_b.setdefault(b, []).append((c, a, v))
    for b in range(k):
        xs, ts = np.nonzero(m == b)
        meetings = np.stack(
            [np.repeat(xs, n), np.tile(np.arange(n), len(xs)), m[ts].ravel()], axis=1)
        entries, values = np.unique(meetings, axis=0, return_counts=True)
        # expansion[c, a] = <c|b,a>
        expansion = np.zeros((k, k), dtype=np.int64)
        for c, a, v in by_b.get(b, ()):
            expansion[c, a] = v
        x, y, a = entries.T
        assert np.array_equal(expansion[m[x, y], a], values), f"b = a{b}"
        # the expansions have no nonzero entry where the products vanish
        assert len(values) == orbit_size @ np.count_nonzero(expansion, axis=1), f"b = a{b}"


def test_products_match_integer_incidence_products(oracle_realizations):
    for name, real in oracle_realizations.items():
        _assert_incidence_identity(real)
        assert all(weights(real).values), name
        assert all(comp_dict(real.hypergroupoid).values()), name


def _assert_matches_numpy_oracle(real):
    membership, reps, sizes = pair_orbits(real.action)
    assert real.membership == membership.ravel().tolist()
    assert real.representative == tuple(reps)
    assert real.orbit_size == tuple(sizes)
    # point orbits are the diagonal pair orbits, numbered by least point
    ids: dict[int, int] = {}
    point_orbit = [ids.setdefault(d, len(ids)) for d in membership.diagonal().tolist()]
    src = [point_orbit[y] for _, y in reps]
    mu, comp = pair_products(membership, reps, src, len(reps))
    # equal dicts with equal item order, so key order is included
    H = real.hypergroupoid
    assert list(mu_dict(H, weights(real).values).items()) == list(mu.items())
    assert list(comp_dict(H).items()) == list(comp.items())


def test_realization_matches_the_numpy_oracle(oracle_realizations):
    for real in oracle_realizations.values():
        _assert_matches_numpy_oracle(real)


def test_realization_of_random_coset_specs_matches_the_numpy_oracle():
    for spec in random_coset_specs(25, seed=5):
        _assert_matches_numpy_oracle(orbit_atoms(coset_union_action(spec)))


def test_products_key_order(oracle_realizations):
    for name, real in oracle_realizations.items():
        src = real.hypergroupoid.src
        keys = list(comp_dict(real.hypergroupoid))
        assert keys == sorted(keys, key=lambda p: (src[p[0]], p[0], p[1])), name
        # mu lists the same pairs in the same order, each pair's
        # composites increasing
        triples = list(mu_dict(real.hypergroupoid, weights(real).values))
        assert triples == sorted(triples, key=lambda t: (src[t[1]], t[1], t[2], t[0])), name


def test_equal_composition_sets_are_one_object(oracle_realizations):
    # S5 on its 2-subsets (the Petersen graph's scheme): adjacent after
    # non-adjacent and non-adjacent after adjacent give one two-arrow set
    s5 = (from_cycles(5, (0, 1)), from_cycles(5, (0, 1, 2, 3, 4)))
    s2xs3 = (from_cycles(5, (0, 1)), from_cycles(5, (2, 3)), from_cycles(5, (2, 3, 4)))
    petersen = orbit_atoms(coset_union_action(
        CosetSpec(degree=5, group_generators=s5, subgroups=(("s2xs3", s2xs3),))))
    repeated = Counter(cs for cs in petersen.hypergroupoid.pair_table[0] if len(cs) > 1)
    assert max(repeated.values()) == 2
    for name, real in (("s5_regular_points", oracle_realizations["s5_regular_points"]),
                       ("petersen", petersen)):
        seen: dict[frozenset[int], frozenset[int]] = {}
        for cs in real.hypergroupoid.pair_table[0]:
            assert seen.setdefault(cs, cs) is cs, name


def test_counts_are_representative_independent(all_realized):
    for real in all_realized.values():
        H = real.hypergroupoid
        m = membership_matrix(real)
        for (c, b, a), v in mu_dict(H, weights(real).values).items():
            pts = np.argwhere(m == c)
            for x, y in pts:
                row = m[x, :] == b
                col = m[:, y] == a
                assert int(np.count_nonzero(row & col)) == v


def test_weights_of_the_fixtures(w_regular, w_cosets, w_mixed):
    assert w_regular.left == (1,) * 6
    assert w_regular.right == (1,) * 6
    assert w_cosets.left == (1, 2)
    assert w_cosets.right == (1, 2)
    for g in (9, 10, 11):
        assert (w_mixed.left[g], w_mixed.right[g]) == (1, 2)
        assert (w_mixed.left[w_mixed.base.star[g]],
                w_mixed.right[w_mixed.base.star[g]]) == (2, 1)


def test_orbit_size_double_counting(all_realized):
    # |a| = |a|_l |src unit| = |a|_r |tgt unit|
    for real in all_realized.values():
        W = weights(real)
        H = W.base
        for g in range(H.n_arrows):
            src_pts = len(real.unit_points[H.src[g]])
            tgt_pts = len(real.unit_points[H.tgt[g]])
            assert real.orbit_size[g] == W.left[g] * src_pts
            assert real.orbit_size[g] == W.right[g] * tgt_pts


@st.composite
def small_actions(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=0, max_value=2))
    gens = tuple(
        tuple(draw(st.permutations(tuple(range(n))))) for _ in range(k))
    return PermAction(n_points=n, generators=gens)


@settings(max_examples=25, deadline=None)
@given(action=small_actions())
def test_random_actions_realize_cleanly(action):
    real = orbit_atoms(action)
    H = real.hypergroupoid
    assert sum(real.orbit_size) == action.n_points ** 2
    assert check_hg_axioms(H).ok
    for g in range(H.n_arrows):
        x, y = real.representative[g]
        assert real.membership[y * action.n_points + x] == H.star[g]
    W = weights(real)
    for g in range(H.n_arrows):
        assert real.orbit_size[g] == W.left[g] * len(real.unit_points[H.src[g]])
