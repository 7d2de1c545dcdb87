"""The readers that take a pair's rows by place, against dict versions.

``Hypergroupoid.pair`` finds the rows of a pair (b, a) by key, and the
values sit at the same places.  ``compose``, ``mul`` and
``convolve_ext`` read the table through it, ``same_structure`` compares
row columns and ``check_morphism`` walks the pairs in (b, a) order.
Each must give what the same reader gives over the composition and mu
dicts of ``table_dicts``, entry by entry as these readers once did: on
the tests/data tables, the ladder and seeded coset tables, with the
infinite entries of ``inf_abstract``, and on mutants that toggle one
composite.
"""

import dataclasses
import random
from array import array
from fractions import Fraction

import pytest

from conftest import DATA
from hyperq.algebra import convolve_ext, mul
from hyperq.errors import InfiniteCoefficient
from hyperq.extnat import INF
from hyperq.fixtures import random_coset_specs
from hyperq.hypergroupoid import EMPTY, check_morphism, same_structure
from hyperq.io import load_input
from hyperq.realization import coset_union_action, orbit_atoms, weights
from table_dicts import comp_dict, mu_dict, with_comp
from test_pair_orbits_oracle import LADDER


def dict_mul(comp, mu, u, v):
    """The convolution product read from the dicts, composites ascending."""
    acc = {}
    for g, cg in u.items():
        for gp, cp in v.items():
            if cg == 0 or cp == 0:
                continue
            for a in sorted(comp.get((g, gp), EMPTY)):
                m = mu[a, g, gp]
                if m is INF:
                    raise InfiniteCoefficient(
                        f"<{a}|{g},{gp}> is infinite; coefficient would diverge")
                acc[a] = acc.get(a, 0) + cg * cp * m
    return {a: c for a, c in acc.items() if c != 0}


def dict_convolve_ext(comp, mu, f, h):
    """(f * h)(a) read from the dicts, with 0 * INF = 0."""
    acc = {}
    for g, fg in f.items():
        for gp, hg in h.items():
            if fg == 0 or hg == 0:
                continue
            for a in comp.get((g, gp), EMPTY):
                acc[a] = acc.get(a, 0) + fg * hg * mu[a, g, gp]
    return {a: v for a, v in acc.items() if v != 0}


def dict_comp_failures(comp1, comp2, amap):
    """The ("comp", b, a) failures of a morphism, read from the dicts."""
    return [("comp", b, a) for (b, a), cs in sorted(comp1.items())
            if not frozenset(amap[c] for c in cs) <= comp2.get((amap[b], amap[a]), EMPTY)]


def _tables():
    out = {}
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(str(path))
        out[path.stem] = spec.weighted or weights(orbit_atoms(spec.action))
    for name, spec in LADDER.items():
        out[name] = weights(orbit_atoms(coset_union_action(spec)))
    return out


TABLES = _tables()


def _mutant(H, rng):
    """H with one well-typed composite toggled in one composition set,
    every set kept inhabited; None if no set can change."""
    comp = comp_dict(H)
    pairs = [(b, a) for (b, a) in comp
             if any(H.src[c] == H.src[a] and H.tgt[c] == H.tgt[b] and comp[b, a] != {c}
                    for c in range(H.n_arrows))]
    if not pairs:
        return None
    b, a = rng.choice(sorted(pairs))
    c = rng.choice([c for c in range(H.n_arrows)
                    if H.src[c] == H.src[a] and H.tgt[c] == H.tgt[b] and comp[b, a] != {c}])
    return with_comp(H, {**comp, (b, a): comp[b, a] ^ {c}})


def _assert_agrees(W, rng, products=8):
    H = W.base
    comp, mu = comp_dict(H), mu_dict(H, W.values)
    n = H.n_arrows
    c_ = H.rows[2]
    for b in range(n):
        for a in range(n):
            cs = comp.get((b, a), EMPTY)
            assert H.compose(b, a) == cs
            assert [(c_[i], W.values[i]) for i in H.pair(b, a)] == [
                (c, mu[c, b, a]) for c in sorted(cs)]
    for _ in range(products):
        u = {g: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for g in rng.sample(range(n), min(n, 3))}
        v = {g: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for g in rng.sample(range(n), min(n, 3))}
        try:
            expected = dict_mul(comp, mu, u, v)
        except InfiniteCoefficient as exc:
            with pytest.raises(InfiniteCoefficient) as info:
                mul(W, u, v)
            assert str(info.value) == str(exc)
        else:
            assert mul(W, u, v) == expected
        f = {g: rng.choice((0, 1, 2, 3, INF)) for g in rng.sample(range(n), min(n, 3))}
        h = {g: rng.choice((0, 1, 2, 3, INF)) for g in rng.sample(range(n), min(n, 3))}
        assert convolve_ext(W, f, h) == dict_convolve_ext(comp, mu, f, h)
    # the same table in other row containers, and a mutant
    for rows in (tuple(map(list, H.rows)), tuple(array("q", tuple(col)) for col in H.rows)):
        assert same_structure(H, dataclasses.replace(H, rows=rows))
    arrows, units = tuple(range(n)), tuple(range(H.n_units))
    assert check_morphism(H, H, units, arrows).ok
    mutant = _mutant(H, rng)
    if mutant is not None:
        assert not same_structure(H, mutant) and not same_structure(mutant, H)
        assert comp_dict(mutant) != comp
        for H1, H2 in ((H, mutant), (mutant, H)):
            report = check_morphism(H1, H2, units, arrows)
            expected = dict_comp_failures(comp_dict(H1), comp_dict(H2), arrows)
            assert (report.comp_ok, report.failures) == (not expected, tuple(expected))
    # an arrow map that keeps the typing and the identities: each other
    # arrow to a random arrow with its source and target
    amap = tuple(g if g in H.unit_arrow else rng.choice(
        [d for d in range(n) if (H.src[d], H.tgt[d]) == (H.src[g], H.tgt[g])]) for g in range(n))
    report = check_morphism(H, H, units, amap)
    expected = dict_comp_failures(comp, comp, amap)
    assert report.typing_ok and report.unit_ok
    assert (report.comp_ok, [f for f in report.failures if f[0] == "comp"]) == (
        not expected, expected)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_fixed_tables(name):
    _assert_agrees(TABLES[name], random.Random(name))


def test_random_coset_specs():
    rng = random.Random(13)
    for spec in random_coset_specs(300, seed=13):
        _assert_agrees(weights(orbit_atoms(coset_union_action(spec))), rng, products=2)


def test_infinite_entries():
    # 0 * INF = 0 in convolve_ext, and mul refuses an infinite entry
    W = TABLES["inf_abstract"]
    H = W.base
    infinite = [(b, a, c) for b, a, c, v in zip(*H.rows, W.values) if v is INF]
    assert infinite
    b, a, c = infinite[0]
    assert convolve_ext(W, {b: 1}, {a: 1})[c] is INF
    assert convolve_ext(W, {b: 0}, {a: INF}) == {}
    with pytest.raises(InfiniteCoefficient):
        mul(W, {b: 1}, {a: 1})
