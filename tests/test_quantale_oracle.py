"""Brute-force element-level oracle for the quantale law checker.

``check_axioms`` decides Q4, Q6, Q7, Q8 and Q9 on atoms only, relying on
the reduction "each law holds for all elements iff it holds for all
atoms".  The oracle here does not rely on it: it builds the full
product and involution tables of all 2**n elements from ``q_mul`` and
``q_star`` alone and evaluates every law on every element tuple
(32 768 triples at 5 atoms).  The two must agree law by law on the
small fixtures and on a seeded battery of random atom tables, and the
checker's counterexample must be the oracle's first failing atom tuple.
"""

import dataclasses
import random

import numpy as np
import pytest

from conftest import DATA
from hyperq.fixtures import delta_quantale, delta_quantale_mutated, random_coset_specs
from hyperq.hypergroupoid import to_quantale
from hyperq.io import load_input
from hyperq.quantale import (
    AtomicQuantale,
    _middles,
    check_axioms,
    mask_to_element,
    q_mul,
    q_star,
    unit_element,
)
from hyperq.realization import coset_union_action, orbit_atoms

ORACLE_ATOM_BOUND = 5
LAWS = ("Q4", "Q6", "Q7", "Q8", "Q9")


def _mask(e) -> int:
    return sum(1 << i for i in e)


def oracle_failures(Q: AtomicQuantale) -> dict[str, np.ndarray]:
    """For each law, a boolean array over element tuples (indexed by
    bitmask) that is True where the law fails."""
    n = Q.n_atoms
    assert n <= ORACLE_ATOM_BOUND
    N = 1 << n
    elems = [mask_to_element(m) for m in range(N)]
    mul = np.array([[_mask(q_mul(Q, a, b)) for b in elems] for a in elems], dtype=np.int64)
    star = np.array([_mask(q_star(Q, a)) for a in elems], dtype=np.int64)
    unit = _mask(unit_element(Q))
    el = np.arange(N, dtype=np.int64)
    x = el[:, None, None]
    y = el[None, :, None]
    z = el[None, None, :]
    return {
        # (x y) z = x (y z)
        "Q4": mul[mul[x, y], z] != mul[x, mul[y, z]],
        # 1 x = x = x 1
        "Q6": (mul[unit, el] != el) | (mul[el, unit] != el),
        # x** = x
        "Q7": star[star] != el,
        # (x y)* = y* x*
        "Q8": star[mul] != mul[star[None, :], star[:, None]],
        # x & y z <= y ((y* x) & z)
        "Q9": (x & mul[y, z] & ~mul[y, mul[star[y], x] & z]) != 0,
    }


def assert_agrees_with_oracle(Q: AtomicQuantale, label=""):
    """The checker passes a law iff no element tuple breaks it, and its
    counterexample is the first failing atom tuple in lexicographic order."""
    fails = oracle_failures(Q)
    report = check_axioms(Q)
    atoms = [1 << i for i in range(Q.n_atoms)]
    for law in LAWS:
        r = report.result(law)
        assert r.passed == (not fails[law].any()), (label, law)
        first = np.argwhere(fails[law][np.ix_(*[atoms] * fails[law].ndim)])
        expected = tuple(frozenset((int(i),)) for i in first[0]) if len(first) else None
        assert r.counterexample == expected, (label, law)
    return report


def _small_fixture_quantales():
    out = {"delta": delta_quantale(), "delta_mutated": delta_quantale_mutated()}
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(str(path))
        H = (spec.weighted.base if spec.kind == "abstract"
             else orbit_atoms(spec.action).hypergroupoid)
        if H.n_arrows <= ORACLE_ATOM_BOUND:
            out[path.stem] = to_quantale(H)
    return out


SMALL = _small_fixture_quantales()


def test_small_fixtures_are_covered():
    # every tests/data fixture of at most five atoms, plus the two deltas
    assert sorted(SMALL) == ["bad_mu", "delta", "delta_abstract", "delta_mutated",
                             "hg3_mutated", "inf_abstract", "kms_bad", "s3_cosets",
                             "trivial2"]


@pytest.mark.parametrize("key", sorted(SMALL))
def test_checker_agrees_with_oracle_on_fixtures(key):
    assert_agrees_with_oracle(SMALL[key], key)


def test_oracle_sees_the_known_failures():
    assert oracle_failures(delta_quantale_mutated())["Q9"].any()
    failing = {law for law, f in oracle_failures(SMALL["hg3_mutated"]).items() if f.any()}
    assert failing == {"Q8", "Q9"}


def _random_table(rng: random.Random) -> AtomicQuantale:
    """A random atom table of 1 to 5 atoms.  Half are random products at
    a random density, with a random involution and random self-adjoint
    units; half are a relabelled cyclic group table (associative, unital
    and modular) with up to two random cell flips."""
    n = rng.randint(1, ORACLE_ATOM_BOUND)
    if rng.random() < 0.5:
        star = list(range(n))
        order = rng.sample(range(n), n)
        for a, b in zip(order[::2], order[1::2]):
            if rng.random() < 0.5:
                star[a], star[b] = b, a
        units = frozenset(e for e in range(n) if star[e] == e and rng.random() < 0.6)
        density = rng.random()
        product = [[{k for k in range(n) if rng.random() < density} for _ in range(n)]
                   for _ in range(n)]
    else:
        # atom perm[i] is the group element i of Z/n
        perm = rng.sample(range(n), n)
        pos = {a: i for i, a in enumerate(perm)}
        star = [perm[-pos[a] % n] for a in range(n)]
        units = frozenset((perm[0],))
        product = [[{perm[(pos[a] + pos[b]) % n]} for b in range(n)] for a in range(n)]
        for _ in range(rng.randint(0, 2)):
            product[rng.randrange(n)][rng.randrange(n)] ^= {rng.randrange(n)}
    return AtomicQuantale(
        atom_names=tuple(f"a{i}" for i in range(n)),
        product=tuple(tuple(frozenset(c) for c in row) for row in product),
        star=tuple(star),
        units=units,
    )


def test_checker_agrees_with_oracle_on_random_tables():
    verdicts = {law: set() for law in LAWS}
    for seed in range(1000):
        Q = _random_table(random.Random(seed))
        report = assert_agrees_with_oracle(Q, seed)
        for law in LAWS:
            verdicts[law].add(report.result(law).passed)
    # the battery exercises both verdicts of every law that can fail
    for law in ("Q4", "Q6", "Q8", "Q9"):
        assert verdicts[law] == {True, False}, law


def q4_oracle(Q: AtomicQuantale):
    """The first atom triple (x, y, z) in lexicographic order with
    (x y) z != x (y z), evaluated with ``q_mul`` triple by triple, or
    None.  Atoms suffice: the element-level oracle above confirms the
    reduction on tables of at most five atoms."""
    n = Q.n_atoms
    for x in range(n):
        for y in range(n):
            xy = Q.product[x][y]
            for z in range(n):
                if q_mul(Q, xy, frozenset((z,))) != q_mul(Q, frozenset((x,)), Q.product[y][z]):
                    return x, y, z
    return None


def test_q4_counterexample_is_found_beyond_the_middles():
    """Q4 scans only the middle atoms y for its verdict and rescans every
    y on a failure, so that the first triple in (x, y, z) order is kept.
    On realized tables of 6 to 30 atoms and on mutants with one or two
    atoms toggled in their product cells, the checker must match the
    triple-by-triple oracle, and some mutants must have their first
    failure at an atom y that is not a middle, where a scan of the
    middles alone would report another triple."""
    bases = [to_quantale(orbit_atoms(coset_union_action(spec)).hypergroupoid)
             for spec in random_coset_specs(200, seed=3)]
    bases = [Q for Q in bases if 6 <= Q.n_atoms <= 30]
    assert max(Q.n_atoms for Q in bases) >= 20
    rng = random.Random(4)
    tables = list(bases)
    for _ in range(300):
        Q = rng.choice(bases)
        n = Q.n_atoms
        product = [list(row) for row in Q.product]
        for _ in range(rng.randint(1, 2)):
            b, a = rng.randrange(n), rng.randrange(n)
            product[b][a] ^= {rng.randrange(n)}
        tables.append(dataclasses.replace(Q, product=tuple(map(tuple, product))))
    beyond = 0
    for Q in tables:
        expected = q4_oracle(Q)
        q4 = check_axioms(Q).result("Q4")
        got = None if q4.passed else tuple(min(e) for e in q4.counterexample)
        assert got == expected
        beyond += expected is not None and expected[1] not in _middles(Q.product)
    assert beyond >= 1
