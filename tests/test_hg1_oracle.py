"""The HG1 row of ``check_hg_axioms`` against its old two-pass form.

``hg1_oracle`` first asks that the declared identity of each unit absorb
on both sides, then scans the other loops at that unit for a second
arrow that absorbs.  The checker keeps only the first pass, since a
second absorbing loop j beside the identity i would give
{j} = comp(j, i) = {i}.  Both must give the same verdict and the same
counterexample on the fixtures, the realized tables and seeded mutants
that toggle one composite or declare another self-adjoint loop the
identity of its unit.
"""

import dataclasses
import random

from hyperq.fixtures import random_coset_specs
from hyperq.hypergroupoid import check_hg_axioms
from hyperq.io import load_input
from hyperq.realization import coset_union_action, orbit_atoms

from conftest import DATA
from table_dicts import comp_dict, with_comp


def hg1_oracle(H):
    """The first (unit, arrow) that breaks HG1, or None."""
    for e in range(H.n_units):
        i = H.unit_arrow[e]
        for x in range(H.n_arrows):
            if H.tgt[x] == e and H.compose(i, x) != frozenset((x,)):
                return (e, x)
            if H.src[x] == e and H.compose(x, i) != frozenset((x,)):
                return (e, x)
        for j in range(H.n_arrows):
            if j == i or H.src[j] != e or H.tgt[j] != e:
                continue
            if (all(H.compose(j, x) == frozenset((x,))
                    for x in range(H.n_arrows) if H.tgt[x] == e)
                    and all(H.compose(x, j) == frozenset((x,))
                            for x in range(H.n_arrows) if H.src[x] == e)):
                return (e, j)
    return None


def _tables(all_realized):
    out = {}
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(path)
        out[path.stem] = (spec.weighted.base if spec.weighted is not None
                          else orbit_atoms(spec.action).hypergroupoid)
    for name, real in all_realized.items():
        out[f"realized_{name}"] = real.hypergroupoid
    for k, spec in enumerate(random_coset_specs(30, seed=11)):
        H = orbit_atoms(coset_union_action(spec)).hypergroupoid
        if H.n_arrows <= 40:
            out[f"coset_{k}"] = H
    return out


def _toggle(H, rng):
    """H with one well-typed composite added to or dropped from one
    composition set, keeping every set inhabited."""
    comp = comp_dict(H)
    pairs = sorted(comp)
    while True:
        b, a = pairs[rng.randrange(len(pairs))]
        hom = [c for c in range(H.n_arrows)
               if H.src[c] == H.src[a] and H.tgt[c] == H.tgt[b]]
        c = rng.choice(hom)
        if comp[b, a] != {c}:
            comp[b, a] ^= {c}
            return with_comp(H, comp)


def _spare_loops(H):
    """The self-adjoint loops (e, j) at a unit e other than its identity."""
    return [(e, j) for e in range(H.n_units) for j in range(H.n_arrows)
            if H.src[j] == H.tgt[j] == e and H.star[j] == j and j != H.unit_arrow[e]]


def _redeclare(H, rng):
    """H with a spare self-adjoint loop declared the identity of its unit."""
    e, j = rng.choice(_spare_loops(H))
    unit_arrow = list(H.unit_arrow)
    unit_arrow[e] = j
    return dataclasses.replace(H, unit_arrow=tuple(unit_arrow))


def _assert_agrees(H):
    expected = hg1_oracle(H)
    hg1 = check_hg_axioms(H).result("HG1")
    assert (hg1.passed, hg1.counterexample) == (expected is None, expected)
    assert hg1.note == "identity uniqueness included"
    return expected


def test_hg1_matches_the_two_pass_oracle(all_realized):
    tables = _tables(all_realized)
    assert all(_assert_agrees(H) is None for H in tables.values())
    # a table whose every hom-set is a single arrow has no toggle, and
    # one with a spare loop has a hom-set of two arrows
    toggled = sorted(name for name, H in tables.items()
                     if len({(H.src[c], H.tgt[c]) for c in range(H.n_arrows)}) < H.n_arrows)
    redeclared = sorted(name for name, H in tables.items() if _spare_loops(H))
    rng = random.Random(414)
    failing = {"toggle": 0, "redeclare": 0, "both": 0}
    for k in range(3600):
        kind = ("toggle", "redeclare", "both")[k % 3]
        if kind == "toggle":
            H = _toggle(tables[rng.choice(toggled)], rng)
        else:
            H = _redeclare(tables[rng.choice(redeclared)], rng)
            if kind == "both":
                H = _toggle(H, rng)
        failing[kind] += _assert_agrees(H) is not None
    # a redeclared identity j never absorbs the old one i, since
    # comp(j, i) = {j}
    assert failing["redeclare"] == failing["both"] == 1200
    assert 100 <= failing["toggle"] <= 1100
