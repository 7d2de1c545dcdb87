"""A brute-force oracle for the involution exchange law (HG3).

``hg3_oracle`` walks the composition dict in the order ``check_hg_axioms``
reports: the pairs (y, z) ascending, then each x in comp(y, z)
ascending, and tests z in y* x and y in x z* one triple at a time.  The
checker decides the law on whole row columns, by key lookups, and must
give the same verdict, count and first triple on the fixtures, the
realized tables and seeded mutants.  A mutant adds or drops one
well-typed composite in one composition set, which mostly breaks the
law, or the same composite with all its images under the law, which
keeps it where it held.

On the same tables the atom table of ``to_quantale``, read off the pair
table, must equal the one read entry by entry from the dict.
"""

import random

from hyperq.hypergroupoid import EMPTY, check_hg_axioms, to_quantale

from table_dicts import comp_dict, with_comp
from test_hg2_oracle import _mutant, base_tables  # noqa: F401  (a fixture)


def hg3_oracle(H):
    """The first (x, y, z) with x in y z but z not in y* x or y not in
    x z*, or None."""
    comp, star = comp_dict(H), H.star
    for y, z in sorted(comp):
        for x in sorted(comp[y, z]):
            if z not in comp.get((star[y], x), EMPTY) or y not in comp.get((x, star[z]), EMPTY):
                return (x, y, z)
    return None


def dict_product(H):
    """The atom table read from the composition dict entry by entry."""
    n, comp = H.n_arrows, comp_dict(H)
    return tuple(tuple(comp.get((b, a), EMPTY) for a in range(n)) for b in range(n))


def _assert_agrees(H):
    expected = hg3_oracle(H)
    hg3 = check_hg_axioms(H).result("HG3")
    assert (hg3.passed, hg3.counterexample, hg3.checked) == (
        expected is None, expected, sum(map(len, comp_dict(H).values())))
    assert to_quantale(H).product == dict_product(H)
    return expected


def test_checker_matches_the_oracle_on_fixtures(base_tables):
    verdicts = {name: _assert_agrees(H) for name, H in base_tables.items()}
    assert verdicts["hg3_mutated"] is not None
    assert verdicts["realized_mixed"] is None
    assert verdicts["delta_abstract"] is None


def _closed_mutant(H, rng):
    """H with one well-typed composite x of (y, z) added or dropped
    together with its images under the exchange law, (x, y, z) ->
    (z, y*, x) and (y, x, z*), so that the law still holds if it held;
    None if a composition set would be left empty."""
    comp = comp_dict(H)
    pairs = sorted(comp)
    y, z = pairs[rng.randrange(len(pairs))]
    x = rng.choice([c for c in range(H.n_arrows)
                    if H.src[c] == H.src[z] and H.tgt[c] == H.tgt[y]])
    add = x not in comp[y, z]
    star, orbit, todo = H.star, set(), [(x, y, z)]
    while todo:
        t = todo.pop()
        if t not in orbit:
            orbit.add(t)
            x, y, z = t
            todo += [(z, star[y], x), (y, x, star[z])]
    for x, y, z in orbit:
        comp[y, z] = comp[y, z] | {x} if add else comp[y, z] - {x}
    if not all(comp.values()):
        return None
    return with_comp(H, comp)


def test_checker_matches_the_oracle_on_mutants(base_tables):
    rng = random.Random(31337)
    # a table whose every hom-set is a single arrow has no mutant
    names = sorted(name for name, H in base_tables.items()
                   if len({(H.src[c], H.tgt[c]) for c in range(H.n_arrows)}) < H.n_arrows)
    failing = passing = 0
    for k in range(1000):
        base = base_tables[rng.choice(names)]
        H = _mutant(base, rng) if k % 2 else _closed_mutant(base, rng)
        if H is not None:
            if _assert_agrees(H) is None:
                passing += 1
            else:
                failing += 1
    # both verdicts must be well represented
    assert failing >= 300 and passing >= 100
