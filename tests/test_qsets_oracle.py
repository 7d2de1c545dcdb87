"""The module-law checkers of ``hyperq.qsets`` against a full enumeration.

``check_modular_action`` and ``check_q_bilinear`` decide their laws over
the atoms q = {j} alone.  The oracles below are the all-elements loops
they replaced: q runs over every element in mask order (atoms first for
the modular law).  Where the reduction's preconditions hold (a
distributive lattice, actions and f that preserve joins) the two must
give equal ``Report``s, but for the instance counts, which range over
the atoms here and are pinned in ``tests/test_checks.py``: on the
quantale lattices of the fixtures and on seeded mutants of their action
and f tables.  A lattice that is not
distributive and an action that does not preserve joins are refused by
name.
"""

import dataclasses
import random
from functools import reduce
from operator import or_

import pytest

from hyperq.checks import Check, Report, first_failure
from hyperq.fixtures import (
    delta_quantale,
    delta_quantale_mutated,
    s3_coset_action,
    trivial_pair_action,
)
from hyperq.hypergroupoid import to_quantale
from hyperq.qsets import (
    RightAction,
    build_lattice,
    check_modular_action,
    check_q_bilinear,
    quantale_lattice,
)
from hyperq.quantale import mask_to_element, q_mul, q_star, unit_element
from hyperq.realization import orbit_atoms


def _uncounted(report):
    """The report with every law's instance count set to 0, as the
    oracles leave it."""
    return Report(tuple(dataclasses.replace(r, checked=0) for r in report.results))


def _elements(Q):
    return [mask_to_element(m) for m in range(1 << Q.n_atoms)]


def modular_oracle(Q, action):
    lat = action.lattice
    n = lat.size
    results = []

    bil = next((
        (lat.bottom, j) for j in range(Q.n_atoms)
        if action.table[lat.bottom][j] != lat.bottom), None)
    if bil is None:
        bil = next((
            (m, mp, j) for m in range(n) for mp in range(n) for j in range(Q.n_atoms)
            if action.table[lat.join[m][mp]][j]
            != lat.join[action.table[m][j]][action.table[mp][j]]), None)
    results.append(first_failure("join-bilinear", bil))

    assoc = next((
        (m, i, j) for m in range(n) for i in range(Q.n_atoms) for j in range(Q.n_atoms)
        if action.act(m, q_mul(Q, frozenset((i,)), frozenset((j,))))
        != action.table[action.table[m][i]][j]), None)
    results.append(first_failure("assoc", assoc))

    unit = next((
        (m,) for m in range(n) if action.act(m, unit_element(Q)) != m), None)
    results.append(first_failure("unit", unit))

    mod = None
    sample = [frozenset((j,)) for j in range(Q.n_atoms)]
    sample += [q for q in _elements(Q) if len(q) != 1]
    for q in sample:
        qs = q_star(Q, q)
        for m in range(n):
            mq = action.act(m, qs)
            for nn in range(n):
                lhs = lat.meet(m, action.act(nn, q))
                rhs = action.act(lat.meet(mq, nn), q)
                if not lat.le(lhs, rhs):
                    mod = (m, nn, tuple(sorted(q)))
                    break
            if mod:
                break
        if mod:
            break
    results.append(first_failure("modular", mod))
    return Report(tuple(results))


def q_bilinear_oracle(Q, act_a, act_b, act_c, f):
    A, B, C = act_a.lattice, act_b.lattice, act_c.lattice
    results = []

    bot = (all(f[A.bottom][b] == C.bottom for b in range(B.size))
           and all(f[a][B.bottom] == C.bottom for a in range(A.size)))
    results.append(Check("bottom", bot))

    bil = next((
        (a, ap, b) for a in range(A.size) for ap in range(A.size) for b in range(B.size)
        if f[A.join[a][ap]][b] != C.join[f[a][b]][f[ap][b]]), None)
    if bil is None:
        bil = next((
            (a, b, bp) for a in range(A.size) for b in range(B.size) for bp in range(B.size)
            if f[a][B.join[b][bp]] != C.join[f[a][b]][f[a][bp]]), None)
    results.append(first_failure("join-bilinear", bil))

    c1 = c2 = c3 = None
    for q in _elements(Q):
        qs = q_star(Q, q)
        for a in range(A.size):
            aq = act_a.act(a, q)
            aqs = act_a.act(a, qs)
            for b in range(B.size):
                bq = act_b.act(b, q)
                bqs = act_b.act(b, qs)
                if c1 is None and not C.le(f[aq][b], act_c.act(f[a][bqs], q)):
                    c1 = (a, b, tuple(sorted(q)))
                if c2 is None and not C.le(f[a][bq], act_c.act(f[aqs][b], q)):
                    c2 = (a, b, tuple(sorted(q)))
                if c3 is None and not C.le(act_c.act(f[a][b], q), f[aq][bq]):
                    c3 = (a, b, tuple(sorted(q)))
    results.append(first_failure("cond-1", c1))
    results.append(first_failure("cond-2", c2))
    results.append(first_failure("cond-3", c3))
    return Report(tuple(results))


# ---------------------------------------------------------------------------
# inputs: powerset lattices, with actions and f extended from atoms by joins


@pytest.fixture(scope="module")
def quantales():
    return {
        "delta": delta_quantale(),
        "delta_mutated": delta_quantale_mutated(),
        "pair": to_quantale(orbit_atoms(trivial_pair_action()).hypergroupoid),
        "s3_cosets": to_quantale(orbit_atoms(s3_coset_action()).hypergroupoid),
    }


def _mask(elem) -> int:
    return sum(1 << k for k in elem)


def _extend(lat, atom_rows):
    """The table over all masks of the rows given at the atoms: the row
    of m is the bitwise OR of the rows of the atoms in m."""
    width = len(atom_rows[0])
    table = []
    for m in range(lat.size):
        row = [0] * width
        for i, atom_row in enumerate(atom_rows):
            if m >> i & 1:
                row = [x | y for x, y in zip(row, atom_row)]
        table.append(tuple(row))
    return tuple(table)


def _bilinear(lat, rows):
    """f(a, b) as a table over all mask pairs from its values at atom
    pairs: the OR of rows[i][k] over the atoms i in a and k in b."""
    n = len(rows)
    return tuple(tuple(
        reduce(or_, (rows[i][k] for i in range(n) for k in range(n)
                     if a >> i & 1 and b >> k & 1), 0)
        for b in range(lat.size)) for a in range(lat.size))


def _action_rows(Q):
    """Right multiplication on atoms: row i, column j is {i}{j}."""
    return [[_mask(Q.product[i][j]) for j in range(Q.n_atoms)] for i in range(Q.n_atoms)]


def _meet_rows(Q):
    """f(a, b) = a & b on atoms: row i, column k is {i} when i = k."""
    return [[1 << i if i == k else 0 for k in range(Q.n_atoms)] for i in range(Q.n_atoms)]


def _toggle(rows, rng, n_atoms, count):
    rows = [list(r) for r in rows]
    for _ in range(count):
        i, k = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        rows[i][k] ^= 1 << rng.randrange(n_atoms)
    return rows


def test_checkers_match_the_oracle_on_quantale_lattices(quantales):
    for name, Q in quantales.items():
        action = quantale_lattice(Q)
        lat = action.lattice
        meet = _bilinear(lat, _meet_rows(Q))
        assert _uncounted(check_modular_action(Q, action)) == modular_oracle(Q, action), name
        assert (_uncounted(check_q_bilinear(Q, action, action, action, meet))
                == q_bilinear_oracle(Q, action, action, action, meet)), name
    assert not check_modular_action(quantales["delta_mutated"],
                                    quantale_lattice(quantales["delta_mutated"])).ok


def test_checkers_match_the_oracle_on_mutants(quantales):
    """Seeded one- and two-entry toggles of the atom rows of the action
    or of f, extended by joins so the preconditions hold."""
    rng = random.Random(1407)
    names = sorted(quantales)
    compared = failing = 0
    for k in range(240):
        Q = quantales[names[k % len(names)]]
        base = quantale_lattice(Q)
        lat = base.lattice
        meet = _bilinear(lat, _meet_rows(Q))
        if k % 2 == 0:
            rows = _toggle(_action_rows(Q), rng, Q.n_atoms, rng.randint(1, 2))
            action = RightAction(lattice=lat, table=_extend(lat, rows))
            report = _uncounted(check_modular_action(Q, action))
            assert report == modular_oracle(Q, action), (k, rows)
            bilinear = _uncounted(check_q_bilinear(Q, base, base, action, meet))
            assert bilinear == q_bilinear_oracle(Q, base, base, action, meet), (k, rows)
        else:
            rows = _toggle(_meet_rows(Q), rng, Q.n_atoms, rng.randint(1, 2))
            f = _bilinear(lat, rows)
            report = _uncounted(check_q_bilinear(Q, base, base, base, f))
            assert report == q_bilinear_oracle(Q, base, base, base, f), (k, rows)
        compared += 1
        failing += not report.ok
    assert compared >= 200
    assert failing >= 20


def test_raw_table_toggles_are_named_or_refused(quantales):
    """A toggle of one entry of the full action table breaks joins: the
    modular checker names the same join-bilinear failure as the oracle,
    and the bilinear checker refuses the action by its parameter name."""
    rng = random.Random(77)
    Q = quantales["pair"]
    base = quantale_lattice(Q)
    lat = base.lattice
    meet = _bilinear(lat, _meet_rows(Q))
    for _ in range(40):
        table = [list(row) for row in base.table]
        m, j = rng.randrange(1, lat.size), rng.randrange(Q.n_atoms)
        table[m][j] ^= 1 << rng.randrange(Q.n_atoms)
        action = RightAction(lattice=lat, table=tuple(map(tuple, table)))
        bil = _uncounted(check_modular_action(Q, action)).result("join-bilinear")
        assert not bil.passed
        assert bil == modular_oracle(Q, action).result("join-bilinear")
        with pytest.raises(ValueError, match="^act_b does not preserve joins at "):
            check_q_bilinear(Q, base, action, base, meet)


# the diamond M3 (bottom 0, atoms 1-3, top 4) and the pentagon N5
# (0 < 1 < 2 < 4 and 0 < 3 < 4)
M3 = [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4], [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]]
N5 = [[0, 1, 2, 3, 4], [1, 1, 2, 4, 4], [2, 2, 2, 4, 4], [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]]


@pytest.mark.parametrize("join", [M3, N5], ids=["M3", "N5"])
def test_non_distributive_lattices_are_refused(join):
    Q = delta_quantale()
    lat = build_lattice(join)
    # both atoms act as the identity: a module, so only distributivity fails
    action = RightAction(lattice=lat, table=tuple((m, m) for m in range(lat.size)))
    with pytest.raises(ValueError, match="^lattice is not distributive at "):
        check_modular_action(Q, action)
