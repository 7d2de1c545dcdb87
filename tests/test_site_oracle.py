"""A brute-force oracle for the site of a quantale.

``site_oracle`` tests the defining conditions of the site on every one
of the 2**n elements, in mask order: f lies in hom(q, q') when
1 & f* f = q and f f* <= q'.  ``quantale.site`` visits only the sets of
pairwise compatible atoms; it must give the same objects and the same
hom tuples, in the same order, on every table of at most 12 atoms: the
tests/data tables, the realized fixtures, seeded coset tables and
seeded mutants that toggle one or two atoms in the product cells,
among them many that are no hypergroupoid or break HG1-HG3.
"""

import dataclasses
import random
from collections import Counter

import pytest

from hyperq.errors import BoundExceeded, HyperqError
from hyperq import quantale
from hyperq.fixtures import delta_quantale, delta_quantale_mutated, random_coset_specs
from hyperq.hypergroupoid import check_hg_axioms, from_quantale, to_quantale
from hyperq.io import load_input
from hyperq.quantale import (
    SITE_ELEMENT_BOUND,
    mask_to_element,
    q_mul,
    q_star,
    site,
)
from hyperq.realization import PermAction, coset_union_action, orbit_atoms

from conftest import DATA


def site_oracle(Q):
    """The objects and hom tuples of the site, from all 2**n elements."""
    units = sorted(Q.units)
    unit = frozenset(units)
    objects = [frozenset(units[i] for i in range(len(units)) if m >> i & 1)
               for m in range(1 << len(units))]
    homs = {(q, q2): [] for q in objects for q2 in objects}
    for m in range(1 << Q.n_atoms):
        f = mask_to_element(m)
        dom = unit & q_mul(Q, q_star(Q, f), f)
        img = q_mul(Q, f, q_star(Q, f))
        for q2 in objects:
            if img <= q2:
                homs[(dom, q2)].append(f)
    return tuple(objects), {key: tuple(fs) for key, fs in homs.items()}


def _assert_agrees(Q, monkeypatch):
    S = site(Q)
    objects, homs = site_oracle(Q)
    assert S.objects == objects
    assert list(S.homs) == list(homs)
    assert S.homs == homs
    # the gate counts the objects and exactly the elements f with
    # f f* <= 1, each of which lies in hom(q, 1) for one q: a bound of
    # the larger count answers, one less refuses
    count = max(len(objects), sum(len(homs[(q, objects[-1])]) for q in objects))
    if count > 1:
        monkeypatch.setattr(quantale, "SITE_ELEMENT_BOUND", count)
        site(Q)
        monkeypatch.setattr(quantale, "SITE_ELEMENT_BOUND", count - 1)
        with pytest.raises(BoundExceeded):
            site(Q)
        monkeypatch.undo()


def _trivial(points):
    return to_quantale(orbit_atoms(PermAction(n_points=points, generators=())).hypergroupoid)


def _kind(Q) -> str:
    """Whether Q is the table of a hypergroupoid, and if so whether it
    satisfies HG1-HG3."""
    try:
        H = from_quantale(Q)
    except HyperqError:
        return "no hypergroupoid"
    return "HG holds" if check_hg_axioms(H).ok else "HG fails"


@pytest.fixture(scope="module")
def base_tables(all_realized):
    """The tables of at most 12 atoms, by name."""
    out = {"delta": delta_quantale(), "delta_mutated": delta_quantale_mutated()}
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(path)
        out[path.stem] = to_quantale(spec.weighted.base if spec.weighted is not None
                                     else orbit_atoms(spec.action).hypergroupoid)
    for name, real in all_realized.items():
        out[f"realized_{name}"] = to_quantale(real.hypergroupoid)
    for points in (1, 2, 3):
        out[f"trivial_{points}"] = _trivial(points)
    for k, spec in enumerate(random_coset_specs(60, seed=13)):
        out[f"coset_{k}"] = to_quantale(orbit_atoms(coset_union_action(spec)).hypergroupoid)
    return {name: Q for name, Q in out.items() if Q.n_atoms <= 12}


def test_site_matches_the_oracle_on_fixtures(base_tables, monkeypatch):
    assert len(base_tables) >= 60
    assert max(Q.n_atoms for Q in base_tables.values()) == 12
    for Q in base_tables.values():
        _assert_agrees(Q, monkeypatch)


def _mutant(Q, rng):
    """Q with one or two atoms toggled in product cells; half of the
    toggled atoms are units, which changes which atoms are compatible."""
    n = Q.n_atoms
    units = sorted(Q.units)
    product = [list(row) for row in Q.product]
    for _ in range(rng.randint(1, 2)):
        x, y = rng.randrange(n), rng.randrange(n)
        c = rng.choice(units) if rng.random() < 0.5 else rng.randrange(n)
        product[x][y] ^= {c}
    return dataclasses.replace(Q, product=tuple(map(tuple, product)))


def test_site_matches_the_oracle_on_mutants(base_tables, monkeypatch):
    rng = random.Random(1312)
    names = sorted(base_tables)
    kinds = Counter()
    moved = 0
    for _ in range(1000):
        Q = base_tables[rng.choice(names)]
        M = _mutant(Q, rng)
        _assert_agrees(M, monkeypatch)
        kinds[_kind(M)] += 1
        moved += site(M).homs != site(Q).homs
    # every kind of mutant must be well represented, and many must move
    # the site away from the one of their base table
    assert min(kinds[k] for k in ("no hypergroupoid", "HG fails", "HG holds")) >= 100
    assert moved >= 300


def test_mixed_site_is_answered():
    spec, _ = load_input(DATA / "s3_mixed.json")
    Q = to_quantale(orbit_atoms(spec.action).hypergroupoid)
    assert Q.n_atoms == 14
    S = site(Q)
    assert [[len(S.hom(q, q2)) for q2 in S.objects] for q in S.objects] == \
        [[1, 1, 1, 1], [0, 6, 3, 9], [0, 0, 1, 1], [0, 0, 3, 9]]


def test_the_gate_counts_compatible_sets():
    # the trivial group on k points has (k + 1) ** k compatible sets, the
    # partial maps of its points, and each lies in hom(q, 1) for one q
    for k in (1, 2, 3, 4):
        S = site(_trivial(k))
        assert sum(len(S.hom(q, S.objects[-1])) for q in S.objects) == (k + 1) ** k
    assert 5 ** 4 <= SITE_ELEMENT_BOUND < 6 ** 5
    with pytest.raises(BoundExceeded, match="gated at 4096 compatible atom sets"):
        site(_trivial(5))
