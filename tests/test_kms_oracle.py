"""A brute-force oracle for the KMS boundary condition.

``kms_oracle`` evaluates eta([q] sigma_i([q'])) = eta([q'] [q]) on every
arrow pair (q, q') with chi(q') defined, pair by pair in (q, q') order,
summing the identity-arrow entries of comp(q, q') afresh each time.
``kms_check`` decides only the pairs that the identity mu entries can
make fail; it must return the same report, or raise the same
``InfiniteCoefficient`` naming the first pair with an infinite identity
entry, on the fixtures, the realized tables, seeded coset tables and
seeded mutants that change identity mu values or weights.
"""

import random
from fractions import Fraction

import pytest

from hyperq.algebra import KmsReport, chi, kms_check
from hyperq.errors import InfiniteCoefficient, ZeroWeight
from hyperq.extnat import INF
from hyperq.fixtures import random_coset_specs
from hyperq.io import load_input
from hyperq.realization import coset_union_action, orbit_atoms, weights

from conftest import DATA
from table_dicts import comp_dict, with_mu

CAP = 20


def kms_oracle(W):
    """(report, number of failing pairs) by evaluating every pair."""
    H = W.base
    units = set(H.unit_arrow)
    ratio = {}
    for g in range(H.n_arrows):
        try:
            ratio[g] = chi(W, g)
        except (InfiniteCoefficient, ZeroWeight):
            pass

    comp = comp_dict(H)

    def unit_mass(x, y):
        if not H.composable(x, y):
            return 0
        return sum(W.mu[(a, x, y)] for a in comp[(x, y)] if a in units)

    names = H.arrow_names
    failures = []
    failing = 0
    checked = 0
    for q in range(H.n_arrows):
        for qp, chi_qp in ratio.items():
            checked += 1
            forward, backward = unit_mass(q, qp), unit_mass(qp, q)
            for x, y, mass in ((q, qp, forward), (qp, q, backward)):
                if mass is INF:
                    raise InfiniteCoefficient(
                        f"kms pair ({names[q]},{names[qp]}) cannot be evaluated: "
                        f"the identity mu entry of ({names[x]},{names[y]}) is infinite")
            lhs = forward / chi_qp
            rhs = Fraction(backward)
            if lhs != rhs:
                failing += 1
                if len(failures) < CAP:
                    failures.append((q, qp, lhs, rhs))
    undefined = tuple(g for g in range(H.n_arrows) if g not in ratio)
    return KmsReport(checked=checked, failures=tuple(failures), chi_undefined=undefined), failing


def _assert_agrees(W):
    """kms_check must return the oracle's report, or raise its error.
    Returns the oracle's (report, failing), or None when both raise."""
    try:
        expected = kms_oracle(W)
    except InfiniteCoefficient as exc:
        with pytest.raises(InfiniteCoefficient) as info:
            kms_check(W)
        assert str(info.value) == str(exc)
        return None
    got = kms_check(W)
    assert got == expected[0]
    assert all(type(x) is Fraction for f in got.failures for x in f[2:])
    return expected


@pytest.fixture(scope="module")
def tables(all_weighted):
    """The tests/data tables, the realized fixtures and seeded coset
    tables of at most 44 arrows, by name."""
    out = {}
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(path)
        out[path.stem] = (spec.weighted if spec.weighted is not None
                          else weights(orbit_atoms(spec.action)))
    for name, W in all_weighted.items():
        out[f"realized_{name}"] = W
    for k, spec in enumerate(random_coset_specs(40, seed=5)):
        W = weights(orbit_atoms(coset_union_action(spec)))
        if W.base.n_arrows >= 4:
            out[f"coset_{k}"] = W
    assert max(W.base.n_arrows for W in out.values()) > CAP
    return out


def test_checker_matches_the_oracle_on_fixtures(tables):
    outcomes = {name: _assert_agrees(W) for name, W in tables.items()}
    assert outcomes["kms_bad"][1] > 0
    assert outcomes["inf_abstract"][0].chi_undefined
    assert all(outcomes[name][0].ok for name in tables
               if name.startswith(("realized_", "coset_")))


_VALUES = (0, 1, 2, 3, 5, INF)


def _mutant(W, rng):
    """W with some identity mu values or weights replaced by random
    extended naturals; sometimes every left weight at once, which makes
    most (q, q*) pairs fail."""
    H = W.base
    units = set(H.unit_arrow)
    mu, left, right = dict(W.mu), list(W.left), list(W.right)
    identity_keys = sorted(k for k in mu if k[0] in units)
    kind = rng.randrange(4)
    if kind == 0:
        for _ in range(rng.randint(1, 3)):
            mu[rng.choice(identity_keys)] = rng.choice(_VALUES)
    elif kind == 1:
        weights_ = rng.choice((left, right))
        weights_[rng.randrange(H.n_arrows)] = rng.choice(_VALUES)
    elif kind == 2:
        left = [rng.randint(1, 9) for _ in left]
    else:
        for k in identity_keys:
            mu[k] = rng.randint(1, 3)
    return with_mu(W, mu, tuple(left), tuple(right))


def test_checker_matches_the_oracle_on_mutants(tables):
    rng = random.Random(7031)
    names = sorted(tables)
    # one draw in five from the tables with room for more than CAP failures
    big = [name for name in names if tables[name].base.n_arrows > CAP]
    raised = failed = over_cap = 0
    for i in range(600):
        name = rng.choice(big if i % 5 == 0 else names)
        outcome = _assert_agrees(_mutant(tables[name], rng))
        if outcome is None:
            raised += 1
        elif outcome[1]:
            failed += 1
            over_cap += outcome[1] > CAP
    # infinite identity entries, failing tables and capped failure lists
    # must all be represented
    assert raised >= 20
    assert failed >= 200
    assert over_cap >= 20
