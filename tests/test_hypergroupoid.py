"""Hypergroupoid axioms, the quantale round trip, semi-simplicity and
morphism checking.

The three-arrow table in data/hg3_mutated.json is associative and unital
but composes by left projection, so the involution exchange law fails;
it pins down the checker's counterexample reporting.
"""

import dataclasses
import gc
import random
import weakref

import pytest

from hyperq.algebra import mu_semisimple
from hyperq.errors import MalformedTable, NotModular
from hyperq.fixtures import (
    delta_quantale,
    delta_quantale_mutated,
    random_coset_specs,
    s3_generators,
    s3_mixed_action,
)
from hyperq.hypergroupoid import (
    Hypergroupoid,
    check_hg_axioms,
    check_morphism,
    from_comp,
    from_quantale,
    is_semisimple,
    is_simple,
    preserves_star,
    same_structure,
    to_quantale,
)
from hyperq.io import load_input
from hyperq.quantale import AtomicQuantale, is_grothendieck
from hyperq.realization import (
    coset_union_action,
    enumerate_group,
    from_cycles,
    orbit_atoms,
)

from conftest import DATA
from table_dicts import comp_dict, with_comp
from test_realization import _union_find_cosets


def test_axioms_pass_on_realized_fixtures(all_realized):
    for real in all_realized.values():
        report = check_hg_axioms(real.hypergroupoid)
        assert report.ok, report.results


def test_axioms_pass_on_delta():
    H = from_quantale(delta_quantale())
    assert check_hg_axioms(H).ok


def test_left_projection_table_fails_exchange_law():
    spec, _ = load_input(DATA / "hg3_mutated.json")
    H = spec.weighted.base
    report = check_hg_axioms(H)
    assert report.result("HG1").passed
    assert report.result("HG2").passed
    hg3 = report.result("HG3")
    assert not hg3.passed
    # s in 1*s holds but 1 in s comp(s*) = {s} fails
    assert hg3.counterexample == (1, 0, 1)


def test_mutated_delta_fails_exchange_law():
    # d in d1 but 1 is not in d*d = {d}
    H = from_quantale(delta_quantale_mutated())
    report = check_hg_axioms(H)
    assert not report.result("HG3").passed


def test_round_trip_from_realized(all_realized):
    for real in all_realized.values():
        H = real.hypergroupoid
        assert same_structure(from_quantale(to_quantale(H)), H)


def test_round_trip_from_table():
    Q = delta_quantale()
    Q2 = to_quantale(from_quantale(Q))
    assert Q2.atom_names == Q.atom_names
    assert Q2.product == Q.product
    assert Q2.star == Q.star
    assert Q2.units == Q.units


def test_unit_resolution_requires_a_unit():
    empty = frozenset()
    Q = AtomicQuantale(
        atom_names=("e", "g"),
        product=((frozenset((0,)), empty), (empty, empty)),
        star=(0, 1),
        units=frozenset((0,)),
    )
    with pytest.raises(NotModular):
        from_quantale(Q)


def test_unit_resolution_must_be_unique():
    e1, e2, g = frozenset((0,)), frozenset((1,)), frozenset((2,))
    empty = frozenset()
    Q = AtomicQuantale(
        atom_names=("e1", "e2", "g"),
        product=(
            (e1, empty, g),
            (empty, e2, g),
            (g, g, g),
        ),
        star=(0, 1, 2),
        units=frozenset((0, 1)),
    )
    with pytest.raises(NotModular):
        from_quantale(Q)


def test_composable_pair_needs_nonempty_product():
    e, g = frozenset((0,)), frozenset((1,))
    empty = frozenset()
    Q = AtomicQuantale(
        atom_names=("e", "g"),
        product=((e, g), (g, empty)),
        star=(0, 1),
        units=frozenset((0,)),
    )
    with pytest.raises(NotModular):
        from_quantale(Q)


@pytest.mark.parametrize("drop, extra, message", [
    ([(5, 2), (3, 4)], {}, "missing composition set for (3,4)"),
    ([(3, 4)], {(-1, 4): frozenset((0,))}, "comp key (-1,4) is not a pair of arrow ids"),
    ([(3, 4)], {(3, 6): frozenset((0,))}, "comp key (3,6) is not a pair of arrow ids"),
    ([], {(3, 4): frozenset()}, "composition set of (3,4) is empty"),
])
def test_composition_table_must_cover_every_composable_pair(real_regular, drop, extra, message):
    # the key count alone finds a gap; a stray key must not make up for one
    H = real_regular.hypergroupoid
    comp = {k: v for k, v in comp_dict(H).items() if k not in drop} | extra
    with pytest.raises(MalformedTable) as info:
        with_comp(H, comp)
    assert str(info.value) == message


@pytest.mark.parametrize("composite, message", [
    (12, "composite 12 of (0,0) lands outside hom(0,0)"),
    (14, "composite 14 of (0,0) lands outside hom(0,0)"),
    (-1, "composite -1 of (0,0) lands outside hom(0,0)"),
])
def test_composites_must_be_typed_arrows(real_mixed, composite, message):
    # 12 is the identity of the other unit; 14 and -1 are not arrow ids
    H = real_mixed.hypergroupoid
    comp = {**comp_dict(H), (0, 0): frozenset((0, composite))}
    with pytest.raises(MalformedTable) as info:
        with_comp(H, comp)
    assert str(info.value) == message


def _with_rows(H, edit):
    """H with its rows edited as three lists: edit(b, a, c) changes them
    in place."""
    b_, a_, c_ = map(list, H.rows)
    edit(b_, a_, c_)
    return dataclasses.replace(H, rows=(b_, a_, c_))


def _drop_last_pair(*columns):
    b_, a_, _ = columns
    last = (b_[-1], a_[-1])
    while (b_[-1], a_[-1]) == last:
        for col in columns:
            col.pop()


def _swap_rows(i, j):
    def edit(*columns):
        for col in columns:
            col[i], col[j] = col[j], col[i]
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda b, a, c: c.__setitem__(0, 12),
                 "composite 12 of (0,0) lands outside hom(0,0)", id="untyped"),
    pytest.param(lambda b, a, c: c.__setitem__(0, 6),
                 "composite 6 of (0,0) lands outside hom(0,0)", id="composite-from-unit-1"),
    pytest.param(lambda b, a, c: c.__setitem__(0, 9),
                 "composite 9 of (0,0) lands outside hom(0,0)", id="composite-into-unit-1"),
    pytest.param(lambda b, a, c: c.__setitem__(0, 14),
                 "composite 14 of (0,0) lands outside hom(0,0)", id="composite-past-the-ids"),
    pytest.param(lambda b, a, c: a.__setitem__(0, -1),
                 "comp key (0,-1) is not a pair of arrow ids", id="negative-id"),
    pytest.param(lambda b, a, c: a.__setitem__(0, 12),
                 "comp defined on non-composable pair (0,12)", id="not-composable"),
    pytest.param(_drop_last_pair, "missing composition set for (13,13)", id="missing-pair"),
    pytest.param(lambda b, a, c: c.pop(), "composition rows must strictly increase by "
                 "src(b), b, a, c", id="short-column"),
    pytest.param(_swap_rows(0, 1), "composition rows must strictly increase by "
                 "src(b), b, a, c", id="out-of-order"),
    pytest.param(lambda b, a, c: [col.insert(0, col[0]) for col in (b, a, c)],
                 "composition rows must strictly increase by src(b), b, a, c",
                 id="repeated-row"),
])
def test_malformed_rows_are_refused(real_mixed, edit, message):
    # rows are checked whole columns at a time; a fault is named as the
    # dict check names it, and the faults a dict cannot have by the
    # one row-order message
    with pytest.raises(MalformedTable) as info:
        _with_rows(real_mixed.hypergroupoid, edit)
    assert str(info.value) == message


def test_rows_and_dict_give_one_table(all_realized):
    for real in all_realized.values():
        H = real.hypergroupoid
        again = with_comp(H, comp_dict(H))
        assert again.rows == H.rows and again.keys == H.keys
        assert comp_dict(dataclasses.replace(H, rows=H.rows)) == comp_dict(H)


def test_the_pair_starts_are_read_only_where_a_pair_has_two_rows():
    # the regular action has one composite per pair, the mixed one not
    for path, read in (("s3_regular.json", False), ("s3_mixed.json", True)):
        H = orbit_atoms(load_input(DATA / path)[0].action).hypergroupoid
        sets = H.pair_table[0]
        assert ("pair_starts" in vars(H)) is read, path
        assert sets == tuple(comp_dict(H).values()), path


def test_composition_star_reversal(all_realized):
    # comp(b, a)* = comp(a*, b*) elementwise
    for real in all_realized.values():
        H = real.hypergroupoid
        for (b, a), cs in comp_dict(H).items():
            swapped = H.compose(H.star[a], H.star[b])
            assert frozenset(H.star[c] for c in cs) == swapped


def test_simplicity_in_the_group_case(real_regular):
    H = real_regular.hypergroupoid
    assert all(is_simple(H, g) for g in range(H.n_arrows))


def test_simplicity_on_cosets(real_cosets):
    H = real_cosets.hypergroupoid
    assert is_simple(H, 0)
    assert not is_simple(H, 1)


def test_simplicity_on_the_mixed_fixture(real_mixed):
    H = real_mixed.hypergroupoid
    # quotient maps onto the small block are simple, their adjoints not
    assert is_simple(H, 9)
    assert not is_simple(H, 6)
    assert is_simple(H, 0)
    assert not is_simple(H, 13)


def test_semisimple_on_the_mixed_fixture(real_mixed):
    H = real_mixed.hypergroupoid
    ok, witness = is_semisimple(H)
    assert ok
    assert sorted(witness) == list(range(H.n_arrows))
    for a, (u, v) in witness.items():
        assert is_simple(H, u) and is_simple(H, v)
        assert H.compose(u, H.star[v]) == frozenset((a,))


def test_cosets_alone_are_not_semisimple(real_cosets):
    # d = u v* needs the quotient maps, which exist only in the union
    ok, witness = is_semisimple(real_cosets.hypergroupoid)
    assert not ok
    assert 0 in witness and 1 not in witness


def test_semisimplicity_caches_do_not_keep_tables_alive():
    H = orbit_atoms(s3_mixed_action()).hypergroupoid
    assert is_semisimple(H)[0]
    assert mu_semisimple(H, 0, 0, 0) == 1
    assert H.simple_arrows == tuple(g for g in range(H.n_arrows) if is_simple(H, g))
    ref = weakref.ref(H)
    del H
    gc.collect()
    assert ref() is None


def _typed_mutant(H, rng):
    """H with one well-typed composite added to or dropped from one
    composition set, keeping every set inhabited."""
    comp = comp_dict(H)
    pairs = sorted(comp)
    while True:
        b, a = pairs[rng.randrange(len(pairs))]
        c = rng.choice([c for c in range(H.n_arrows)
                        if H.src[c] == H.src[a] and H.tgt[c] == H.tgt[b]])
        if comp[b, a] != {c}:
            return with_comp(H, {**comp, (b, a): comp[b, a] ^ {c}})


def _first_factorizations(H):
    """Each arrow's first (u, v) in id order with u, v simple and
    comp(u, v*) = {arrow}, searched arrow by arrow."""
    simples = [g for g in range(H.n_arrows) if is_simple(H, g)]
    out = {}
    for f in range(H.n_arrows):
        found = [(u, v) for u in simples for v in simples
                 if H.compose(u, H.star[v]) == frozenset((f,))]
        if found:
            out[f] = found[0]
    return out


def test_top_decomposition_matches_semisimplicity(all_realized):
    # the quantale and the hypergroupoid view give the same flag and the
    # same witness as a search arrow by arrow, on the realized, abstract
    # and seeded coset tables and on seeded mutants of them
    tables = [real.hypergroupoid for real in all_realized.values()]
    tables.append(from_quantale(delta_quantale()))
    tables.append(from_quantale(delta_quantale_mutated()))
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(path)
        if spec.weighted is not None:
            tables.append(spec.weighted.base)
    for spec in random_coset_specs(30, seed=11):
        tables.append(orbit_atoms(coset_union_action(spec)).hypergroupoid)
    # a table whose every hom-set is a single arrow has no mutant
    mutable = [H for H in tables
               if len({(H.src[c], H.tgt[c]) for c in range(H.n_arrows)}) < H.n_arrows]
    rng = random.Random(217)
    mutants = [_typed_mutant(rng.choice(mutable), rng) for _ in range(300)]
    failing = 0
    for H in tables + mutants:
        expected = _first_factorizations(H)
        ok = len(expected) == H.n_arrows
        failing += not ok
        assert is_semisimple(H) == (ok, expected)
        assert is_grothendieck(to_quantale(H)) == (ok, expected)
    assert failing >= 50


# ---------------------------------------------------------------------------
# morphisms


def test_identity_morphism(real_regular):
    H = real_regular.hypergroupoid
    n, arrows = H.n_arrows, tuple(range(H.n_arrows))
    report = check_morphism(H, H, tuple(range(H.n_units)), arrows)
    assert report.ok and preserves_star(H, H, arrows)
    assert all(r.failures == () for r in report.results)
    # the arrows, the units and the composable pairs
    assert [(r.name, r.checked) for r in report.results] == [
        ("typing", n), ("unit", H.n_units),
        ("comp", sum(H.composable(b, a) for b in range(n) for a in range(n)))]


def test_comp_is_not_walked_when_the_typing_fails(real_pair):
    # two points, so two units and four arrows: swapping the units under
    # the identity arrow map breaks every arrow's typing and both units
    H = real_pair.hypergroupoid
    report = check_morphism(H, H, (1, 0), tuple(range(4)))
    assert [(r.name, r.passed, r.checked, r.failures) for r in report.results] == [
        ("typing", False, 4, (0, 1, 2, 3)), ("unit", False, 2, (0, 1)), ("comp", True, 0, ())]
    assert not report.ok


def _quotient_arrow_map(real_regular, real_cosets):
    """Arrow map of the projection onto the coset block: an arrow's
    representative pair maps to the orbit of its cosets."""
    elements = enumerate_group(s3_generators(), 3)
    _, cls = _union_find_cosets(elements, (from_cycles(3, (0, 1)),))
    out = []
    for (x, y) in real_regular.representative:
        out.append(real_cosets.membership[cls[x] * 3 + cls[y]])
    return tuple(out)


def test_quotient_morphism(real_regular, real_cosets):
    amap = _quotient_arrow_map(real_regular, real_cosets)
    report = check_morphism(real_regular.hypergroupoid,
                            real_cosets.hypergroupoid, (0,), amap)
    assert report.ok
    assert preserves_star(real_regular.hypergroupoid, real_cosets.hypergroupoid, amap)


def test_collapsing_the_other_way_fails(real_regular, real_cosets):
    # send d to a transposition arrow: dd covers the unit and d, but the
    # image only reaches the unit
    elements = enumerate_group(s3_generators(), 3)
    t_arrow = real_regular.membership[elements.index(from_cycles(3, (0, 1))) * 6]
    report = check_morphism(real_cosets.hypergroupoid,
                            real_regular.hypergroupoid, (0,), (0, t_arrow))
    assert report.result("typing").passed and report.result("unit").passed
    assert not report.result("comp").passed
    assert not report.ok
    assert (1, 1) in report.result("comp").failures


def _cyclic3() -> Hypergroupoid:
    one, s, t = frozenset((0,)), frozenset((1,)), frozenset((2,))
    return from_comp(
        unit_names=("e",),
        arrow_names=("1", "s", "t"),
        src=(0, 0, 0),
        tgt=(0, 0, 0),
        star=(0, 2, 1),
        unit_arrow=(0,),
        comp={
            (0, 0): one, (0, 1): s, (0, 2): t,
            (1, 0): s, (1, 1): t, (1, 2): one,
            (2, 0): t, (2, 1): one, (2, 2): s,
        },
    )


def test_star_preservation_is_reported_separately():
    # target absorbs every composition, so the inclusion always holds,
    # but its star fixes the arrows the source swaps
    everything = frozenset((0, 1, 2))
    chaotic = from_comp(
        unit_names=("e",),
        arrow_names=("1", "s", "t"),
        src=(0, 0, 0),
        tgt=(0, 0, 0),
        star=(0, 1, 2),
        unit_arrow=(0,),
        comp={(b, a): everything for b in range(3) for a in range(3)},
    )
    source = _cyclic3()
    assert check_hg_axioms(source).ok
    report = check_morphism(source, chaotic, (0,), (0, 1, 2))
    assert report.ok
    assert not preserves_star(source, chaotic, (0, 1, 2))
