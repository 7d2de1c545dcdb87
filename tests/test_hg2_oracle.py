"""A brute-force oracle for hypergroupoid associativity (HG2).

``hg2_oracle`` evaluates (x y) z and x (y z) as sets for every
composable triple, triple by triple, in the order ``check_hg_axioms``
reports: y, then x, then z, each ascending.  The checker must give the
same verdict and the same first counterexample on the fixtures, the
realized tables and seeded mutants that add or drop one well-typed
composite in one composition set.  The checker scans only the middle
arrows of Light's test, so every failing mutant's first y must be a
middle.
"""

import random

import pytest

from hyperq import hypergroupoid, quantale
from hyperq.fixtures import random_coset_specs
from hyperq.hypergroupoid import check_hg_axioms, to_quantale
from hyperq.io import load_input
from hyperq.realization import CosetSpec, coset_union_action, from_cycles, orbit_atoms

from conftest import DATA
from table_dicts import comp_dict, with_comp


def _mul_sets(H, left, right):
    out = set()
    for b in left:
        for a in right:
            out |= H.compose(b, a)
    return frozenset(out)


def hg2_oracle(H):
    """The first composable triple (x, y, z) with (x y) z != x (y z),
    or None."""
    for y in range(H.n_arrows):
        for x in range(H.n_arrows):
            if not H.composable(x, y):
                continue
            for z in range(H.n_arrows):
                if not H.composable(y, z):
                    continue
                left = _mul_sets(H, H.compose(x, y), frozenset((z,)))
                right = _mul_sets(H, frozenset((x,)), H.compose(y, z))
                if left != right:
                    return (x, y, z)
    return None


def _assert_agrees(H):
    expected = hg2_oracle(H)
    hg2 = check_hg_axioms(H).result("HG2")
    assert (hg2.passed, hg2.counterexample) == (expected is None, expected)
    return expected


@pytest.fixture(scope="module")
def base_tables(all_realized):
    """The tests/data tables, the realized fixtures and seeded coset
    tables, all of at most 40 arrows, by name."""
    out = {}
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(path)
        out[path.stem] = (spec.weighted.base if spec.weighted is not None
                          else orbit_atoms(spec.action).hypergroupoid)
    for name, real in all_realized.items():
        out[f"realized_{name}"] = real.hypergroupoid
    for k, spec in enumerate(random_coset_specs(40, seed=5)):
        H = orbit_atoms(coset_union_action(spec)).hypergroupoid
        if 4 <= H.n_arrows <= 40:
            out[f"coset_{k}"] = H
    assert max(H.n_arrows for H in out.values()) <= 40
    return out


def test_checker_matches_the_oracle_on_fixtures(base_tables):
    verdicts = {name: _assert_agrees(H) for name, H in base_tables.items()}
    assert verdicts["realized_mixed"] is None
    assert verdicts["delta_abstract"] is None


def _mutant(H, rng):
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


def test_checker_matches_the_oracle_on_mutants(base_tables):
    rng = random.Random(20240)
    # a table whose every hom-set is a single arrow has no mutant
    names = sorted(name for name, H in base_tables.items()
                   if len({(H.src[c], H.tgt[c]) for c in range(H.n_arrows)}) < H.n_arrows)
    failing = 0
    for _ in range(1000):
        H = _mutant(base_tables[rng.choice(names)], rng)
        expected = hg2_oracle(H)
        if expected is not None:
            failing += 1
            # the checker scans only the middles: the first failing y
            # must be one of them
            assert expected[1] in hypergroupoid._middles(H)
        hg2 = check_hg_axioms(H).result("HG2")
        assert (hg2.passed, hg2.counterexample) == (expected is None, expected)
    # both verdicts must be well represented
    assert 100 <= failing <= 900


@pytest.mark.parametrize("degree", [4, 5])
def test_regular_tables_have_few_middles(degree):
    """S4 and S5 acting on themselves are generated by a transposition
    and a long cycle, so both views find at most 4 middles among 24 and
    120 arrows, and the laws pass."""
    gens = (from_cycles(degree, (0, 1)), from_cycles(degree, tuple(range(degree))))
    spec = CosetSpec(degree=degree, group_generators=gens, subgroups=(("e", ()),))
    H = orbit_atoms(coset_union_action(spec)).hypergroupoid
    Q = to_quantale(H)
    assert len(hypergroupoid._middles(H)) <= 4
    assert len(quantale._middles(Q.product)) <= 4
    assert check_hg_axioms(H).result("HG2").passed
    assert quantale.check_axioms(Q).result("Q4").passed
