"""A coset input is walked coset by coset, and its group is never listed.

``coset_union_action`` lists only each subgroup K, to read its stabilizer
chain, and walks the cosets of K from K.  The order bound counts K's
elements and the walked points, so a large group with a small coset
space answers: the Johnson and Hamming schemes against their valencies
C(k,i)·C(n−k,i) and C(d,i)·(q−1)^i, and GL₃(F₃) on its complete flags
against the Iwahori–Hecke relation T_s² = (q−1)T_s + q.
``tests/test_realization.py`` holds the walk's points, generators and
stabilizers to a union-find over the listed group.
"""

import json
import subprocess
import sys
from itertools import product
from math import comb

import pytest

from hyperq import realization
from hyperq.algebra import mul
from hyperq.errors import OrderBoundExceeded
from hyperq.fixtures import random_coset_specs
from hyperq.realization import CosetSpec, coset_union_action, from_cycles, orbit_atoms, weights
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


@pytest.mark.parametrize("name", [*sorted(LADDER), "battery_seed_13"])
def test_each_subgroup_is_listed_once(listed, name):
    specs = random_coset_specs(300, seed=13) if name == "battery_seed_13" else [LADDER[name]]
    for spec in specs:
        listed.clear()
        coset_union_action(spec)
        assert listed == [k_gens for _, k_gens in spec.subgroups], spec


def _sym(degree, first=0, last=None):
    """Generators of the symmetric group on first..last-1, of the given degree."""
    last = degree if last is None else last
    if last - first < 2:
        return ()
    return (from_cycles(degree, (first, first + 1)), from_cycles(degree, tuple(range(first, last))))


# C8 with K = S8 outside it; S8 on the 20 160 cosets of <(0 1)>; A8 by
# (0 1 2) and (1 2 3 4 5 6 7) with K = S3 on {0, 1, 2} outside it; C4 with
# K = <(0 1)> outside it
REFUSALS = {
    "subgroup_past_bound": (8, (from_cycles(8, tuple(range(8))),), _sym(8),
                            OrderBoundExceeded, "group order exceeds bound 10000"),
    "points_past_bound": (8, _sym(8), (from_cycles(8, (0, 1)),),
                          OrderBoundExceeded, "group order exceeds bound 10000"),
    "outside_a8": (8, (from_cycles(8, (0, 1, 2)), from_cycles(8, tuple(range(1, 8)))),
                   _sym(8, 0, 3), ValueError, "subgroup 'k' generator outside the group"),
    "outside_c4": (4, (from_cycles(4, (0, 1, 2, 3)),), (from_cycles(4, (0, 1)),),
                   ValueError, "subgroup 'k' generator outside the group"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_the_group_is_never_listed(listed, name):
    degree, group, k_gens, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        coset_union_action(CosetSpec(degree, group, (("k", k_gens),)))
    assert listed == [k_gens]


def test_s8_on_the_8_cosets_of_s7_answers(listed):
    # 8 * 5 040 group elements, but K has 5 040 and there are 8 points
    s7 = _sym(8, 0, 7)
    real = orbit_atoms(coset_union_action(CosetSpec(8, _sym(8), (("k", s7),))))
    assert (real.n_points, real.n_arrows) == (8, 2)
    assert listed == [s7]


def johnson(n, k) -> CosetSpec:
    """S_n on the k-subsets of n points, the cosets of S_k × S_(n−k)."""
    return CosetSpec(n, _sym(n), (("k", _sym(n, 0, k) + _sym(n, k, n)),))


def hamming(d, q) -> CosetSpec:
    """S_q ≀ S_d on the q^d words of length d, the cosets of the
    stabilizer S_(q−1) ≀ S_d of the word 0...0; letter j of place i is
    the point i*q + j."""
    degree = d * q
    swap = from_cycles(degree, *((j, q + j) for j in range(q)))
    shift = from_cycles(degree, *(tuple(range(j, degree, q)) for j in range(q)))
    return CosetSpec(degree, _sym(degree, 0, q) + (swap, shift),
                     (("k", _sym(degree, 1, q) + (swap, shift)),))


def gl3_f3_flags() -> CosetSpec:
    """GL_3(F_3) on its complete flags: the cosets of the upper triangular
    group B, acting on the 26 nonzero vectors of F_3^3."""
    vectors = [v for v in product(range(3), repeat=3) if any(v)]
    place = {v: i for i, v in enumerate(vectors)}

    def perm(rows):
        return tuple(place[tuple(sum(a * b for a, b in zip(row, v)) % 3 for row in rows)]
                     for v in vectors)

    def matrix(**entries):
        return [[entries.get(f"m{i}{j}", int(i == j)) for j in range(3)] for i in range(3)]

    borel = tuple(perm(matrix(**{f"m{i}{i}": 2})) for i in range(3)) + (
        perm(matrix(m01=1)), perm(matrix(m12=1)))
    weyl = (perm(matrix(m00=0, m01=1, m10=1, m11=0)), perm(matrix(m11=0, m12=1, m21=1, m22=0)))
    return CosetSpec(len(vectors), borel + weyl, (("B", borel),))


@pytest.mark.parametrize("spec, valencies", [
    (johnson(8, 4), [comb(4, i) * comb(4, i) for i in range(5)]),
    (johnson(9, 3), [comb(3, i) * comb(6, i) for i in range(4)]),
    (hamming(4, 3), [comb(4, i) * 2 ** i for i in range(5)]),
], ids=["J(8,4)", "J(9,3)", "H(4,3)"])
def test_schemes_past_the_old_bound_have_their_valencies(listed, spec, valencies):
    W = weights(orbit_atoms(coset_union_action(spec)))
    assert list(W.left) == list(W.right) == valencies
    assert listed == [spec.subgroups[0][1]]


def test_gl3_f3_on_its_flags_satisfies_the_hecke_relation(listed):
    q = 3
    spec = gl3_f3_flags()
    W = weights(orbit_atoms(coset_union_action(spec)))
    # 11 232 group elements, 216 in B, 52 flags; weights q^l(w) over S3
    assert sorted(W.left) == sorted(W.right) == [1, q, q, q * q, q * q, q ** 3]
    simple = [s for s, w in enumerate(W.left) if w == q]
    assert len(simple) == 2
    for s in simple:
        # T_s^2 = q [1] + (q - 1) T_s: <1|s,s> = 3 and <s|s,s> = 2
        assert mul(W, {s: 1}, {s: 1}) == {0: q, s: q - 1}
    assert listed == [spec.subgroups[0][1]]


@pytest.mark.parametrize("command", ["kms", "check"])
def test_a_coset_input_past_the_old_bound_runs_under_O(tmp_path, command):
    spec = johnson(8, 4)
    path = tmp_path / "j84.json"
    path.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "coset", "name": "j84", "degree": spec.degree,
        "group_generators": spec.group_generators,
        "subgroups": [{"name": name, "generators": gens} for name, gens in spec.subgroups]}))
    proc = subprocess.run([sys.executable, "-O", "-m", "hyperq.cli", command, str(path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
