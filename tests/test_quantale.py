"""Atom-table quantales: product/star helpers, the exact axiom checker,
the top-decomposition test, and the site enumeration.

The relation-composition oracle recomputes products of the two-point
relation quantale from scratch with boolean matrix arithmetic, so the
atom table in the module under test is cross-checked against an
independent construction; tests/test_quantale_oracle.py does the same
for the law checker.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq.errors import BoundExceeded
from hyperq.fixtures import delta_quantale, delta_quantale_mutated
from hyperq.hypergroupoid import to_quantale
from hyperq.quantale import (
    SITE_ELEMENT_BOUND,
    bottom,
    check_axioms,
    is_grothendieck,
    mask_to_element,
    q_mul,
    q_star,
    simple_atoms,
    site,
    top,
    unit_element,
)
from hyperq.realization import PermAction, orbit_atoms
from numpy_oracles import matrix, membership_matrix


@pytest.fixture(scope="module")
def q_pair(real_pair):
    return to_quantale(real_pair.hypergroupoid)


@pytest.fixture(scope="module")
def q_regular(real_regular):
    return to_quantale(real_regular.hypergroupoid)


@pytest.fixture(scope="module")
def q_mixed(real_mixed):
    return to_quantale(real_mixed.hypergroupoid)


@pytest.fixture(scope="module")
def q_trivial5():
    # the trivial group on 5 points: 25 atoms, 6 ** 5 compatible atom sets
    return to_quantale(orbit_atoms(PermAction(n_points=5, generators=())).hypergroupoid)


def test_delta_product_table():
    Q = delta_quantale()
    one, d = frozenset((0,)), frozenset((1,))
    assert q_mul(Q, d, d) == frozenset((0, 1))
    assert q_mul(Q, one, d) == d
    assert q_mul(Q, d, one) == d
    assert q_star(Q, d) == d
    assert unit_element(Q) == one
    assert top(Q) == frozenset((0, 1))
    assert bottom(Q) == frozenset()
    assert q_mul(Q, bottom(Q), top(Q)) == bottom(Q)


def _bool_compose_oracle(real, a, b):
    """Composite of two relation-quantale elements via membership matrices."""
    n = real.n_points
    ma = np.zeros((n, n), dtype=bool)
    mb = np.zeros((n, n), dtype=bool)
    for g in a:
        ma |= matrix(real, g)
    for g in b:
        mb |= matrix(real, g)
    prod = ma.astype(int) @ mb.astype(int) > 0
    labels = membership_matrix(real)
    return frozenset(int(labels[x, y]) for x, y in np.argwhere(prod))


def test_relation_composition_matches_boolean_matmul(real_pair, q_pair):
    # all 256 products of the sixteen elements of the two-point table
    n = q_pair.n_atoms
    for ma in range(1 << n):
        for mb in range(1 << n):
            a, b = mask_to_element(ma), mask_to_element(mb)
            assert q_mul(q_pair, a, b) == _bool_compose_oracle(real_pair, a, b)


def test_pair_quantale_products(real_pair, q_pair):
    # arrows of the trivial action are single pairs in row-major order
    assert real_pair.representative == ((0, 0), (0, 1), (1, 0), (1, 1))
    # (0,1) then (1,0) composes to (0,0)
    assert q_mul(q_pair, frozenset((1,)), frozenset((2,))) == frozenset((0,))
    # (1,0) then (0,1) composes to (1,1)
    assert q_mul(q_pair, frozenset((2,)), frozenset((1,))) == frozenset((3,))
    assert unit_element(q_pair) == frozenset((0, 3))


def test_star_reverses_pairs(real_pair, q_pair):
    assert q_star(q_pair, frozenset((1,))) == frozenset((2,))
    assert q_star(q_pair, frozenset((0, 1))) == frozenset((0, 2))


def test_exhaustive_axioms_pass_on_pair_table(q_pair):
    report = check_axioms(q_pair)
    assert report.ok
    assert [r.name for r in report.results] == [f"Q{i}" for i in range(1, 10)]
    assert all(r.passed for r in report.results)


def test_exhaustive_axioms_pass_on_delta():
    report = check_axioms(delta_quantale())
    assert report.ok
    assert not report.failing()


def test_mutated_delta_fails_modularity():
    report = check_axioms(delta_quantale_mutated())
    assert not report.ok
    q9 = report.result("Q9")
    assert not q9.passed
    # x = d, y = d, z = 1: x & yz = d but y(y*x & z) is empty
    assert q9.counterexample == (
        frozenset((1,)), frozenset((1,)), frozenset((0,)))


def test_mutated_delta_fails_only_modularity():
    # associative and unital, so Q9 is the only failing law
    report = check_axioms(delta_quantale_mutated())
    assert [r.name for r in report.failing()] == ["Q9"]


def test_exhaustive_bound_is_enforced(q_mixed, q_trivial5):
    # the law check has no atom bound: 14 atoms, past any 2**n element
    # enumeration, are decided exactly on atoms, and so are the 25 atoms
    # of a table whose site is refused
    assert q_mixed.n_atoms == 14
    assert check_axioms(q_mixed).ok
    assert check_axioms(q_trivial5).ok
    with pytest.raises(BoundExceeded, match="gated at"):
        site(q_trivial5)


def test_sampled_mode_passes_and_is_deterministic(q_mixed):
    # the exact check that replaced the sampler passes on the mixed table
    # and gives the same report on every run
    first = check_axioms(q_mixed)
    assert first.ok
    assert first == check_axioms(q_mixed)
    assert [(r.name, r.passed, r.note) for r in first.results] == \
        [(r.name, r.passed, r.note) for r in check_axioms(q_mixed).results]


def test_axiom_notes_state_the_coverage(q_mixed):
    notes = {r.name: r.note for r in check_axioms(q_mixed).results}
    assert notes["Q4"] == notes["Q9"] == "2744 atom triples"
    assert notes["Q8"] == "196 atom pairs"
    assert notes["Q6"] == notes["Q7"] == "14 atoms"
    for name in ("Q1", "Q2", "Q3", "Q5"):
        assert notes[name].startswith("holds by construction")


@settings(max_examples=200, deadline=None)
@given(ma=st.integers(0, (1 << 14) - 1), mb=st.integers(0, (1 << 14) - 1),
       mc=st.integers(0, (1 << 14) - 1))
def test_product_distributes_and_star_reverses(q_mixed, ma, mb, mc):
    a, b, c = (mask_to_element(m) for m in (ma, mb, mc))
    assert q_mul(q_mixed, a, b | c) == \
        q_mul(q_mixed, a, b) | q_mul(q_mixed, a, c)
    assert q_star(q_mixed, q_mul(q_mixed, a, b)) == \
        q_mul(q_mixed, q_star(q_mixed, b), q_star(q_mixed, a))
    assert q_star(q_mixed, q_star(q_mixed, a)) == a


def test_simple_atoms_of_pair_table(q_pair):
    # every single pair is the graph of a partial bijection
    assert simple_atoms(q_pair) == (0, 1, 2, 3)


def test_simple_atoms_of_delta():
    assert simple_atoms(delta_quantale()) == (0,)


def test_top_decomposition_on_realized_tables(q_pair, q_regular, q_mixed):
    for Q in (q_pair, q_regular, q_mixed):
        ok, witness = is_grothendieck(Q)
        assert ok
        assert sorted(witness) == list(range(Q.n_atoms))
        simples = set(simple_atoms(Q))
        for atom, (u, v) in witness.items():
            assert u in simples and v in simples
            assert q_mul(Q, frozenset((u,)), q_star(Q, frozenset((v,)))) \
                == frozenset((atom,))


def test_delta_is_not_grothendieck():
    # d has no factorization u v* with both factors simple: the only
    # simple atom is the unit, and 1 1* = 1 != d
    ok, witness = is_grothendieck(delta_quantale())
    assert not ok
    assert 1 not in witness
    assert witness[0] == (0, 0)


def test_coset_table_is_not_grothendieck(real_cosets):
    ok, _ = is_grothendieck(to_quantale(real_cosets.hypergroupoid))
    assert not ok


def test_site_of_pair_table(q_pair):
    S = site(q_pair)
    units = sorted(q_pair.units)
    assert len(units) == 2
    assert len(S.objects) == 4
    # hom counts: |q2| ** |q| functions between subsets of two points
    for q in S.objects:
        for q2 in S.objects:
            assert len(S.hom(q, q2)) == len(q2) ** len(q)


def test_site_composition_and_identities(q_pair):
    S = site(q_pair)
    for q in S.objects:
        assert S.identity(q) in S.hom(q, q)
        for q2 in S.objects:
            for f in S.hom(q, q2):
                assert S.compose(f, S.identity(q)) == f
                assert S.compose(S.identity(q2), f) == f
                for q3 in S.objects:
                    for g in S.hom(q2, q3):
                        assert S.compose(g, f) in S.hom(q, q3)


def test_site_covering_families(q_pair):
    S = site(q_pair)
    units = sorted(q_pair.units)
    both = frozenset(units)
    singletons = [frozenset((u,)) for u in units]
    assert S.is_covering(both, [both])
    assert S.is_covering(both, singletons)
    assert not S.is_covering(both, [singletons[0]])
    assert S.is_covering(frozenset(), [])


def test_site_of_delta():
    S = site(delta_quantale())
    assert len(S.objects) == 2
    one = frozenset((0,))
    assert S.hom(frozenset(), frozenset()) == (frozenset(),)
    assert S.hom(one, one) == (one,)
    assert S.hom(one, frozenset()) == ()


def test_site_bound_is_enforced(q_trivial5):
    assert 6 ** 5 > SITE_ELEMENT_BOUND
    with pytest.raises(BoundExceeded, match="gated at"):
        site(q_trivial5)
