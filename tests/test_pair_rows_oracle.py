"""The realized table as flat rows, against the dict builder it replaced.

``orbit_atoms`` keeps the structure constants as parallel columns (the
rows (b, a, c) of the hypergroupoid and the value column of the
realization), and ``comp`` and ``mu`` are dict views of them, built on
first access.  The oracle here is the builder that wrote both dicts
directly: one ``Counter`` per arrow over the keys rank(b)*k + a, the
first composite and count of each key in two flat lists, the further
ones in ``more``, and one sweep in key order.  On the corpus of
``tests/test_pair_orbits_oracle.py`` the views must equal its dicts in
insertion order, with equal composition sets one object, and the weighted
table and its weights must agree with them.

The commands that never look a pair up (``algebra``, ``kms``, ``atoms``
and ``evolve``) must leave both views unbuilt on a realized input.
"""

import json
import random
from collections import Counter
from itertools import compress
from operator import add

import pytest

from conftest import DATA
from hyperq import cli
from hyperq.fixtures import random_coset_specs
from hyperq.io import load_input
from hyperq.realization import (
    PermAction,
    coset_union_action,
    from_cycles,
    identity_perm,
    orbit_atoms,
    weights,
)
from test_pair_orbits_oracle import ACTIONS, LADDER


def dict_pair_products(membership, n, reps, src):
    """(mu, comp) as dicts, mu keyed (c, b, a), both by src[b], b, a and
    then increasing c; equal composition sets are one frozenset."""
    k = len(reps)
    order = sorted(range(k), key=src.__getitem__)
    rank = sorted(range(k), key=order.__getitem__)
    rows: dict[int, list[int]] = {}
    first_c, first_v = [0] * (k * k), [0] * (k * k)
    more: dict[int, list[int]] = {}
    for c, (x, y) in enumerate(reps):
        row = rows.get(x)
        if row is None:
            row = rows[x] = [rank[b] * k for b in membership[x * n:(x + 1) * n]]
        for key, v in Counter(map(add, row, membership[y::n])).items():
            if first_v[key]:
                more.setdefault(key, []).extend((c, v))
            else:
                first_c[key], first_v[key] = c, v
    single = [frozenset((c,)) for c in range(k)]
    shared: dict[tuple[int, ...], frozenset[int]] = {}
    mu, comp = {}, {}
    for key in compress(range(k * k), first_v):
        r, a = divmod(key, k)
        b, c = order[r], first_c[key]
        mu[c, b, a] = first_v[key]
        extra = more.get(key)
        if extra is None:
            comp[b, a] = single[c]
        else:
            for i in range(0, len(extra), 2):
                mu[extra[i], b, a] = extra[i + 1]
            cs = (c, *extra[::2])
            comp[b, a] = shared.get(cs) or shared.setdefault(cs, frozenset(cs))
    return mu, comp


def _corpus():
    """The actions of the pair-orbit oracle's tests, by name."""
    out = {path.stem: load_input(str(path))[0].action for path in ACTIONS}
    out.update((name, coset_union_action(spec)) for name, spec in LADDER.items())
    out.update((f"coset_{i}", coset_union_action(spec))
               for i, spec in enumerate(random_coset_specs(12, seed=15)))
    out["cycles_7"] = PermAction(7, (from_cycles(7, (0, 1, 2)), from_cycles(7, (3, 4))))
    out["swaps_6"] = PermAction(6, (from_cycles(6, (1, 4)), from_cycles(6, (2, 5))))
    rng = random.Random(15)
    for i in range(40):
        n = rng.randint(2, 9)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(n), rng.randint(0, n))
            p = list(range(n))
            for j, m in zip(moved, moved[1:] + moved[:1]):
                p[j] = m
            gens.append(tuple(p))
        out[f"random_{i}"] = PermAction(n, tuple(gens))
    for i, gens in enumerate([(), (identity_perm(4),), (identity_perm(4), identity_perm(4)),
                              (from_cycles(4, (0, 1, 2)), from_cycles(4, (0, 1, 2))),
                              (from_cycles(4, (0, 1)), identity_perm(4), from_cycles(4, (0, 1)))]):
        out[f"repeated_{i}"] = PermAction(4, gens)
    for action in (PermAction(0, ()), PermAction(0, ((), ())), PermAction(1, ()),
                   PermAction(1, ((0,),)), PermAction(2, ()), PermAction(2, ((1, 0),)),
                   PermAction(2, ((0, 1), (1, 0), (1, 0)))):
        out[f"points_{action.n_points}_{len(action.generators)}"] = action
    return out


CORPUS = _corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_views_equal_the_dict_builder(name):
    real = orbit_atoms(CORPUS[name])
    H = real.hypergroupoid
    src = tuple(real.point_orbit[y] for _, y in real.representative)
    mu, comp = dict_pair_products(real.membership, real.n_points, real.representative, src)
    W = weights(real)
    # equal dicts with equal item order
    assert list(real.mu.items()) == list(mu.items())
    assert list(W.mu.items()) == list(mu.items())
    assert list(H.comp.items()) == list(comp.items())
    # equal composition sets are one object, as in the oracle
    seen: dict[frozenset[int], frozenset[int]] = {}
    for cs in H.comp.values():
        assert seen.setdefault(cs, cs) is cs
    # the rows are the oracle's mu keys, the values its values
    b_, a_, c_ = H.rows
    assert list(zip(c_, b_, a_)) == list(mu)
    assert list(W.values) == list(mu.values())
    assert H.pair_starts == [i for i, pair in enumerate(zip(b_, a_))
                             if i == 0 or pair != (b_[i - 1], a_[i - 1])]
    assert W.left == tuple(mu.get((H.unit_arrow[H.src[g]], H.star[g], g), 0)
                           for g in range(H.n_arrows))
    assert W.right == tuple(mu.get((H.unit_arrow[H.tgt[g]], g, H.star[g]), 0)
                            for g in range(H.n_arrows))


# realized inputs, each with a literal on one of its arrows
VIEW_INPUTS = [(DATA / "s3_mixed.json", "[a3]"), (DATA / "s3_regular.json", "[a1]"),
               (DATA / "trivial2.json", "[a1]")]


def _built(monkeypatch, argv):
    """(code, built views) of one in-process call: for every realization
    and weighted table the call made, which of its views exist."""
    made = []

    def record(func):
        def wrapped(*args):
            made.append(func(*args))
            return made[-1]
        return wrapped

    monkeypatch.setattr(cli, "orbit_atoms", record(orbit_atoms))
    monkeypatch.setattr(cli, "weights", record(weights))
    code = cli.main(argv)
    real, W = made
    assert W.base is real.hypergroupoid and W.values is real.values
    views = (("real.mu", real, "mu"), ("W.mu", W, "mu"), ("comp", W.base, "comp"))
    return code, {name for name, obj, attr in views if attr in vars(obj)}


@pytest.mark.parametrize("path, elem", VIEW_INPUTS, ids=lambda v: getattr(v, "stem", v))
def test_algebra_kms_atoms_and_evolve_build_no_view(path, elem, monkeypatch, capsys):
    for argv in (["algebra", str(path)], ["algebra", str(path), "--format", "json"],
                 ["kms", str(path)], ["kms", str(path), "--format", "json"],
                 ["atoms", str(path)], ["evolve", str(path), "--t", "0.5", "--element", elem]):
        code, built = _built(monkeypatch, argv)
        assert code == 0 and built == set(), argv
    capsys.readouterr()


def test_check_site_and_convolve_build_the_views_they_read(monkeypatch, capsys):
    path = str(DATA / "s3_cosets.json")
    assert _built(monkeypatch, ["check", path]) == (0, {"comp"})
    assert _built(monkeypatch, ["site", path]) == (0, {"comp"})
    assert _built(monkeypatch, ["convolve", path, "--f", "[a1]", "--g", "[a1]"]) == (
        0, {"comp", "W.mu"})
    capsys.readouterr()


def test_abstract_inputs_keep_their_composition_dict():
    spec, _ = load_input(str(DATA / "delta_abstract.json"))
    doc = json.loads((DATA / "delta_abstract.json").read_text())
    H = spec.weighted.base
    names = H.arrow_names
    assert [(names[b], names[a]) for b, a in H.comp] == [
        (rec["left"], rec["right"]) for rec in doc["comp"]]
    assert {(names[c], names[b], names[a]): v for (c, b, a), v in spec.weighted.mu.items()} == {
        (rec["a"], rec["g"], rec["gp"]): rec["value"] for rec in doc["mu"]}
