"""A per-instance oracle for the weight identities.

``weights_oracle`` checks each law instance by instance, in the order
``validate_weights`` reports them: arrows for the three weight laws, the
sorted mu keys (a, g, g') for star-mu, murel-1 and murel-2, and the
sorted composable pairs for murel-3, whose right side sums
<a|g,g'> |a|_l over a ascending.  ``validate_weights`` compares each law
as two whole lists; it must return the same report (names, counts,
failures and their order, capped at 20) on the fixtures, seeded coset
tables and seeded mutants that change mu values and weights.
"""

import random

import pytest

from hyperq.algebra import validate_weights
from hyperq.checks import Check, Report
from hyperq.extnat import INF
from hyperq.fixtures import random_coset_specs
from hyperq.io import load_input
from hyperq.realization import coset_union_action, orbit_atoms, weights

from conftest import DATA
from table_dicts import comp_dict, with_mu

CAP = 20


def weights_oracle(W):
    """(report, failing instances per law) by checking every instance."""
    H, mu, left, right, star = W.base, W.mu, W.left, W.right, W.base.star
    # |g|_l = <e|g*,g> and |g|_r = <e'|g,g*>, e and e' the identities of
    # src(g) and tgt(g), looked up in the mu dict
    dleft = [mu.get((H.unit_arrow[H.src[g]], star[g], g), 0) for g in range(H.n_arrows)]
    dright = [mu.get((H.unit_arrow[H.tgt[g]], g, star[g]), 0) for g in range(H.n_arrows)]
    laws = {
        "left-def": [(g, left[g], dleft[g]) for g in range(H.n_arrows)],
        "right-def": [(g, right[g], dright[g]) for g in range(H.n_arrows)],
        "star-left": [(g, left[star[g]], right[g]) for g in range(H.n_arrows)],
        "star-mu": [], "murel-1": [], "murel-2": [], "murel-3": [],
    }
    for (a, g, gp), v in sorted(mu.items()):
        laws["star-mu"].append(((a, g, gp), v, mu.get((star[a], star[gp], star[g]), 0)))
        laws["murel-1"].append(
            ((a, g, gp), v * left[a], mu.get((gp, star[g], a), 0) * left[gp]))
        laws["murel-2"].append(
            ((a, g, gp), v * right[a], mu.get((g, a, star[gp]), 0) * right[g]))
    for (g, gp), cs in sorted(comp_dict(H).items()):
        total = 0
        for a in sorted(cs):
            total = total + mu[(a, g, gp)] * left[a]
        laws["murel-3"].append(((g, gp), left[g] * left[gp], total))
    checks = []
    failing = {}
    for name, instances in laws.items():
        failures = [(key, lhs, rhs) for key, lhs, rhs in instances if lhs != rhs]
        failing[name] = len(failures)
        checks.append(Check(name, not failures, len(instances), tuple(failures[:CAP])))
    return Report(tuple(checks)), failing


@pytest.fixture(scope="module")
def tables():
    """The tests/data tables and seeded coset tables, by name."""
    out = {}
    for path in sorted(DATA.glob("*.json")):
        spec, _ = load_input(path)
        out[path.stem] = (spec.weighted if spec.weighted is not None
                          else weights(orbit_atoms(spec.action)))
    for k, spec in enumerate(random_coset_specs(30, seed=9)):
        out[f"coset_{k}"] = weights(orbit_atoms(coset_union_action(spec)))
    assert max(len(W.mu) for W in out.values()) > 10 * CAP
    return out


def test_validate_weights_matches_the_oracle_on_fixtures(tables):
    for name, W in tables.items():
        expected, failing = weights_oracle(W)
        assert validate_weights(W) == expected, name
    assert not validate_weights(tables["kms_bad"]).ok
    assert all(validate_weights(W).ok for name, W in tables.items() if name.startswith("coset_"))


_VALUES = (0, 1, 2, 3, 5, INF)


def _mutant(W, rng):
    """W with some mu values, some weights, or every left weight replaced
    by random extended naturals."""
    mu, left, right = dict(W.mu), list(W.left), list(W.right)
    kind = rng.randrange(3)
    if kind == 0:
        for key in rng.sample(sorted(mu), rng.randint(1, max(1, len(mu) // 5))):
            mu[key] = rng.choice(_VALUES)
    elif kind == 1:
        for _ in range(rng.randint(1, 3)):
            weights_ = rng.choice((left, right))
            weights_[rng.randrange(len(weights_))] = rng.choice(_VALUES)
    else:
        left = [rng.choice(_VALUES) for _ in left]
    return with_mu(W, mu, tuple(left), tuple(right))


def test_validate_weights_matches_the_oracle_on_mutants(tables):
    rng = random.Random(4127)
    names = sorted(tables)
    failed = {}
    over_cap = 0
    for _ in range(300):
        W = _mutant(tables[rng.choice(names)], rng)
        expected, failing = weights_oracle(W)
        assert validate_weights(W) == expected
        for law, count in failing.items():
            failed[law] = failed.get(law, 0) + (count > 0)
            over_cap += count > CAP
    # every law fails somewhere, and some failure lists are capped
    assert len(failed) == 7 and min(failed.values()) >= 10
    assert over_cap >= 20
