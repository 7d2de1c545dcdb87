"""The convolution algebra: weight identities, products, involution,
evolution, the temperature-one boundary condition, and the matrix oracle.

Everything except sigma at real time is exact rational arithmetic, so
the assertions are equalities; sigma gets a 1e-12 tolerance.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperq.algebra import (
    WeightedHypergroupoid,
    chi,
    convolve_ext,
    derived_weights,
    e_basis,
    eta,
    is_locally_finite,
    kms_check,
    left_finite_witness,
    mu_semisimple,
    mu_values,
    mul,
    sigma,
    sigma_imag,
    star,
    validate_weights,
)
from hyperq.errors import InfiniteCoefficient, MalformedTable, NotSemisimple, ZeroWeight
from hyperq.extnat import INF
from hyperq.fixtures import random_coset_specs
from hyperq.hypergroupoid import from_comp, from_quantale, to_quantale
from hyperq.io import load_input
from hyperq.realization import (
    coset_union_action,
    count_mu,
    enumerate_group,
    orbit_atoms,
    perm_inv,
    perm_mul,
    weights,
)

from conftest import DATA
from numpy_oracles import decompose_matrix, regular_rep
from stabilizer_oracles import unit_sizes
from table_dicts import comp_dict, with_mu
from test_pair_orbits_oracle import LADDER


def _random_elements(W, count, seed, denominators=True):
    rng = random.Random(seed)
    n = W.base.n_arrows
    nonzero = (-3, -2, -1, 1, 2, 3)
    out = []
    for _ in range(count):
        support = rng.sample(range(n), rng.randint(1, min(4, n)))
        if denominators:
            out.append({g: Fraction(rng.choice(nonzero), rng.randint(1, 4))
                        for g in support})
        else:
            out.append({g: rng.choice(nonzero) for g in support})
    return out


# ---------------------------------------------------------------------------
# weight identities


def test_weight_identities_hold_on_fixtures(all_weighted):
    for name, W in all_weighted.items():
        report = validate_weights(W)
        assert report.ok, (name, [r for r in report.results if not r.passed])


def test_weight_identities_hold_on_the_abstract_table():
    spec, _ = load_input(DATA / "delta_abstract.json")
    assert validate_weights(spec.weighted).ok


def test_sum_identity_catches_a_mutated_count(w_cosets):
    # <d|d,d> := 2 keeps the symmetry laws but breaks the sum identity:
    # |d|_l |d|_l = 4 while the right side becomes 2*1 + 2*2 = 6
    mutated = with_mu(w_cosets, {**w_cosets.mu, (1, 1, 1): 2})
    report = validate_weights(mutated)
    assert not report.ok
    sum_check = report.result("murel-3")
    assert not sum_check.passed
    assert ((1, 1), 4, 6) in sum_check.failures
    for name in ("left-def", "right-def", "star-left", "star-mu",
                 "murel-1", "murel-2"):
        assert report.result(name).passed


@pytest.mark.parametrize("change, error, message", [
    pytest.param({(1, 0, 0): 1}, MalformedTable,
                 "mu entry (1,0,0) outside the composition table", id="outside_comp"),
    pytest.param({(0, 1, 0): 1}, MalformedTable,
                 "mu entry (0,1,0) outside the composition table", id="not_a_composite"),
    pytest.param({(1, 1, 1): True}, TypeError, "not an extended natural: True", id="bool"),
    pytest.param({(1, 1, 1): 1.0}, TypeError, "not an extended natural: 1.0", id="float"),
    pytest.param({(1, 1, 1): -1}, ValueError,
                 "extended naturals are nonnegative, got -1", id="negative"),
    pytest.param({(0, 1, 1): None}, MalformedTable, "mu missing entry (0,1,1)", id="missing"),
    # a composite past the arrow ids: (3, 0, 0) in place of (1, 0, 1), whose
    # row key high[0] + mid[1] + 1 = 3 it would alias as high[0] + mid[0] + 3
    pytest.param({(1, 0, 1): None, (3, 0, 0): 1}, MalformedTable,
                 "mu entry (3,0,0) outside the composition table", id="aliased_key"),
])
def test_malformed_mu_tables_are_refused(w_cosets, change, error, message):
    mu = {**w_cosets.mu, **change}
    mu = {key: v for key, v in mu.items() if v is not None}
    with pytest.raises(error) as info:
        with_mu(w_cosets, mu)
    assert str(info.value) == message


@pytest.mark.parametrize("edit, error, message", [
    pytest.param(lambda v: v.pop(), MalformedTable,
                 "mu must have one value per composition row", id="short"),
    pytest.param(lambda v: v.__setitem__(2, True), TypeError,
                 "not an extended natural: True", id="bool"),
    pytest.param(lambda v: v.__setitem__(2, -1), ValueError,
                 "extended naturals are nonnegative, got -1", id="negative"),
])
def test_malformed_value_columns_are_refused(w_cosets, edit, error, message):
    values = list(w_cosets.values)
    edit(values)
    with pytest.raises(error) as info:
        WeightedHypergroupoid(base=w_cosets.base, values=values,
                              left=w_cosets.left, right=w_cosets.right)
    assert str(info.value) == message


def test_derived_weights_read_only_the_rows_of_star_pairs():
    # one unit e and g* = h, with the identity in every product of g and
    # h: |a|_l = <e|a*,a> and |b|_r = <e|b,b*> whatever <e|g,g> and
    # <e|h,h> are
    H = from_comp(
        ("u",), ("e", "g", "h"), (0, 0, 0), (0, 0, 0), (0, 2, 1), (0,),
        {(b, a): frozenset((a,)) if b == 0 else frozenset((b,)) if a == 0
         else frozenset((0,)) for b in range(3) for a in range(3)})
    mu = {(next(iter(cs)), b, a): 1 for (b, a), cs in comp_dict(H).items()}
    mu.update({(0, 1, 1): 5, (0, 2, 2): 7, (0, 2, 1): 2, (0, 1, 2): 3})
    values = mu_values(H, mu)
    left, right = derived_weights(H, [values[i] for i in H.identity_index])
    assert left == (1, mu[0, 2, 1], mu[0, 1, 2])
    assert right == (1, mu[0, 1, 2], mu[0, 2, 1])


def test_bad_mu_fixture_fails_only_the_sum_identity():
    spec, _ = load_input(DATA / "bad_mu.json")
    report = validate_weights(spec.weighted)
    assert not report.ok
    failed = [r.name for r in report.results if not r.passed]
    assert failed == ["murel-3"]


def test_local_finiteness(all_weighted):
    for W in all_weighted.values():
        assert is_locally_finite(W)
    spec, _ = load_input(DATA / "inf_abstract.json")
    assert not is_locally_finite(spec.weighted)


def test_infinite_table_rejects_finite_operations():
    spec, _ = load_input(DATA / "inf_abstract.json")
    W = spec.weighted
    with pytest.raises(InfiniteCoefficient):
        mul(W, {1: 1}, {1: 1})
    with pytest.raises(InfiniteCoefficient):
        chi(W, 1)


def test_zero_weight_is_rejected(w_cosets):
    W = WeightedHypergroupoid(base=w_cosets.base, values=w_cosets.values,
                              left=(1, 0), right=(1, 0))
    with pytest.raises(ZeroWeight):
        chi(W, 1)
    with pytest.raises(ZeroWeight):
        star(W, {1: 1})
    with pytest.raises(ZeroWeight):
        e_basis(W, 1)


# ---------------------------------------------------------------------------
# the product


def test_double_coset_product(w_cosets):
    assert mul(w_cosets, {1: 1}, {1: 1}) == {0: 2, 1: 1}
    assert mul(w_cosets, {1: 1}, {0: 1}) == {1: 1}
    assert mul(w_cosets, {0: 1}, {0: 1}) == {0: 1}


def test_product_is_bilinear(w_cosets):
    u = {1: Fraction(1, 2)}
    assert mul(w_cosets, u, {1: 3}) == {0: 3, 1: Fraction(3, 2)}
    assert mul(w_cosets, u, {}) == {}
    assert mul(w_cosets, {1: 1, 0: -1}, {1: 1}) == {0: 2}


def test_group_law(real_regular, w_regular):
    """[g][g'] = [gg'] on the regular fixture, all 36 pairs.

    A pair (x, y) lies on the graph of right multiplication by the group
    element y^-1 x, and composing the relations multiplies those
    constants in application order, so the oracle is the multiplication
    table of the six permutations."""
    elements = enumerate_group(real_regular.action.generators, 6)
    index = {p: i for i, p in enumerate(elements)}

    def constant(g):
        x, y = real_regular.representative[g]
        return perm_mul(perm_inv(elements[y]), elements[x])

    # the constants enumerate the group with the identity on the unit
    assert sorted(constant(g) for g in range(6)) == sorted(elements)
    assert constant(0) == elements[0]
    for a in range(6):
        for b in range(6):
            product = perm_mul(constant(b), constant(a))
            expected = real_regular.membership[index[product] * 6]
            assert mul(w_regular, {a: 1}, {b: 1}) == {expected: 1}


def test_unit_element_is_an_identity(all_weighted):
    for W in all_weighted.values():
        one = {i: 1 for i in W.base.unit_arrow}
        for u in _random_elements(W, 5, seed=3):
            assert mul(W, one, u) == u
            assert mul(W, u, one) == u


def test_associativity_on_basis_triples(w_cosets, w_mixed):
    for W, thirds in ((w_cosets, (0, 1)), (w_mixed, (0, 3, 6, 9, 13))):
        n = W.base.n_arrows
        for g in range(n):
            for gp in range(n):
                for gpp in thirds:
                    left = mul(W, mul(W, {g: 1}, {gp: 1}), {gpp: 1})
                    right = mul(W, {g: 1}, mul(W, {gp: 1}, {gpp: 1}))
                    assert left == right


def test_associativity_on_random_elements(w_mixed):
    us = _random_elements(w_mixed, 10, seed=11)
    vs = _random_elements(w_mixed, 10, seed=12)
    ws = _random_elements(w_mixed, 10, seed=13)
    for u, v, w in zip(us, vs, ws):
        assert mul(w_mixed, mul(w_mixed, u, v), w) == \
            mul(w_mixed, u, mul(w_mixed, v, w))


# ---------------------------------------------------------------------------
# involution and the modular ratio


def test_chi_values(w_regular, w_mixed):
    assert all(chi(w_regular, g) == 1 for g in range(6))
    for g in (9, 10, 11):
        assert chi(w_mixed, g) == Fraction(1, 2)
        assert chi(w_mixed, w_mixed.base.star[g]) == 2
    for e in w_mixed.base.unit_arrow:
        assert chi(w_mixed, e) == 1


def test_chi_is_multiplicative(all_weighted):
    for W in all_weighted.values():
        H = W.base
        for (g, gp), cs in comp_dict(H).items():
            for a in cs:
                assert chi(W, a) == chi(W, g) * chi(W, gp)


def test_star_on_basis(w_cosets, w_mixed):
    assert star(w_cosets, {1: 1}) == {1: 1}
    assert star(w_mixed, {9: 1}) == {6: Fraction(1, 2)}
    assert star(w_mixed, {6: 1}) == {9: 2}


def test_star_is_an_involution(all_weighted):
    for W in all_weighted.values():
        for u in _random_elements(W, 10, seed=5):
            assert star(W, star(W, u)) == u


def test_star_is_an_anti_homomorphism(all_weighted):
    for W in all_weighted.values():
        us = _random_elements(W, 8, seed=6)
        vs = _random_elements(W, 8, seed=7)
        for u, v in zip(us, vs):
            assert star(W, mul(W, u, v)) == mul(W, star(W, v), star(W, u))


def test_normalized_basis(w_cosets, w_regular, w_mixed):
    assert e_basis(w_cosets, 1) == {1: Fraction(1, 2)}
    assert all(e_basis(w_regular, g) == {g: 1} for g in range(6))
    assert star(w_mixed, e_basis(w_mixed, 9)) == e_basis(w_mixed, 6)
    assert star(w_mixed, e_basis(w_mixed, 13)) == e_basis(w_mixed, 13)


# ---------------------------------------------------------------------------
# evolution


def test_imaginary_time_scales_by_inverse_chi(w_regular, w_mixed):
    assert sigma_imag(w_mixed, {9: 1}) == {9: 2}
    assert sigma_imag(w_mixed, {6: 1}) == {6: Fraction(1, 2)}
    u = {0: Fraction(2, 3), 3: -1}
    assert sigma_imag(w_regular, u) == u


def test_imaginary_time_inverts_exactly(w_mixed):
    for u in _random_elements(w_mixed, 10, seed=8):
        forward = sigma_imag(w_mixed, u)
        back = {g: c * chi(w_mixed, g) for g, c in forward.items()}
        assert back == u


def _close(u, v, tol=1e-12):
    keys = set(u) | set(v)
    return all(abs(complex(u.get(k, 0)) - complex(v.get(k, 0))) <= tol
               for k in keys)


def test_real_time_evolution(w_regular, w_mixed):
    u = {1: Fraction(3, 2), 4: -2}
    assert _close(sigma(w_regular, 17.3, u), u)
    assert _close(sigma(w_mixed, 0.0, {9: 1, 13: -4}), {9: 1, 13: -4})
    # chi = 1/2, so t = pi / ln 2 turns the phase by exactly pi
    t = math.pi / math.log(2)
    assert _close(sigma(w_mixed, t, {9: 1}), {9: -1})


def test_real_time_evolution_is_a_homomorphism(w_mixed):
    us = _random_elements(w_mixed, 20, seed=9)
    vs = _random_elements(w_mixed, 20, seed=10)
    for t in (0.5, 1.0, math.pi):
        for u, v in zip(us, vs):
            lhs = sigma(w_mixed, t, mul(w_mixed, u, v))
            rhs = mul(w_mixed, sigma(w_mixed, t, u), sigma(w_mixed, t, v))
            assert _close(lhs, rhs)


# ---------------------------------------------------------------------------
# the weight and its boundary condition


def test_eta_reads_unit_coefficients(w_cosets, w_mixed):
    assert eta(w_cosets, {0: 1}) == 1
    assert eta(w_cosets, {1: 5}) == 0
    assert eta(w_cosets, mul(w_cosets, {1: 1}, {1: 1})) == 2
    assert eta(w_mixed, {0: 1, 12: 1, 13: 7}) == 2


def test_kms_boundary_condition_holds(all_weighted):
    for name, W in all_weighted.items():
        report = kms_check(W)
        assert report.ok, (name, report.failures)
        assert report.checked == W.base.n_arrows ** 2


def test_kms_agrees_with_the_elementwise_identity(w_mixed):
    # the reduced check against eta([q] sigma_i([q'])) = eta([q'][q])
    n = w_mixed.base.n_arrows
    for q in range(n):
        for qp in range(n):
            lhs = eta(w_mixed, mul(w_mixed, {q: 1},
                                   sigma_imag(w_mixed, {qp: 1})))
            rhs = eta(w_mixed, mul(w_mixed, {qp: 1}, {q: 1}))
            assert lhs == rhs


def test_kms_on_the_group_fixture(w_regular):
    # both sides are 1 exactly when q' inverts q
    H = w_regular.base
    for q in range(6):
        for qp in range(6):
            expected = 1 if H.star[q] == qp else 0
            assert eta(w_regular, mul(w_regular, {qp: 1}, {q: 1})) == expected


def test_kms_mixed_pair_values(w_mixed):
    # q = quotient map, q' = its adjoint: lhs = (1/chi(q*)) <e|q,q*> = 1
    assert eta(w_mixed, mul(w_mixed, {9: 1},
                            sigma_imag(w_mixed, {6: 1}))) == 1
    assert eta(w_mixed, mul(w_mixed, {6: 1}, {9: 1})) == 1


def test_declared_left_weight_override_breaks_kms():
    spec, _ = load_input(DATA / "kms_bad.json")
    report = kms_check(spec.weighted)
    assert not report.ok
    assert (1, 1, Fraction(4, 3), Fraction(2)) in report.failures


# ---------------------------------------------------------------------------
# extended natural convolution


def test_convolution_matches_mul_on_characteristic_functions(w_cosets, w_mixed):
    for W in (w_cosets, w_mixed):
        n = W.base.n_arrows
        for g in range(n):
            for gp in range(n):
                assert convolve_ext(W, {g: 1}, {gp: 1}) == \
                    mul(W, {g: 1}, {gp: 1})


def test_convolution_zero_and_infinity(w_cosets):
    assert convolve_ext(w_cosets, {}, {1: 3}) == {}
    assert convolve_ext(w_cosets, {1: 0}, {1: 3}) == {}
    assert convolve_ext(w_cosets, {1: INF}, {1: 1}) == {0: INF, 1: INF}
    assert convolve_ext(w_cosets, {1: INF}, {1: 0}) == {}
    with pytest.raises(ValueError):
        convolve_ext(w_cosets, {1: -1}, {1: 1})
    with pytest.raises(TypeError):
        convolve_ext(w_cosets, {1: 1.5}, {1: 1})


def test_convolution_through_an_infinite_table():
    spec, _ = load_input(DATA / "inf_abstract.json")
    W = spec.weighted
    assert convolve_ext(W, {1: 1}, {1: 1}) == {0: INF, 1: INF}


# ---------------------------------------------------------------------------
# the matrix oracle


def test_matrix_of_the_double_coset_arrow(real_cosets, w_cosets):
    M = regular_rep(real_cosets, {1: 1})
    square = M.dot(M)
    expected = regular_rep(real_cosets, mul(w_cosets, {1: 1}, {1: 1}))
    assert (square == expected).all()
    assert (square == 2 * regular_rep(real_cosets, {0: 1}) + M).all()


def test_matrix_of_the_unit(all_realized):
    for real in all_realized.values():
        H = real.hypergroupoid
        one = {i: 1 for i in H.unit_arrow}
        assert (regular_rep(real, one) == np.eye(real.n_points, dtype=object)).all()


def test_matrix_transpose_is_star(all_realized):
    for real in all_realized.values():
        H = real.hypergroupoid
        for g in range(H.n_arrows):
            assert (regular_rep(real, {g: 1}).T ==
                    regular_rep(real, {H.star[g]: 1})).all()


def test_matrix_representation_is_multiplicative(all_realized, all_weighted):
    for name in all_realized:
        real, W = all_realized[name], all_weighted[name]
        us = _random_elements(W, 10, seed=20)
        vs = _random_elements(W, 10, seed=21)
        for u, v in zip(us, vs):
            product = regular_rep(real, u).dot(regular_rep(real, v))
            assert decompose_matrix(real, product) == mul(W, u, v)


def test_decompose_rejects_non_orbit_constant_matrices(real_cosets):
    M = np.full((3, 3), Fraction(0), dtype=object)
    M[0, 1] = Fraction(1)
    with pytest.raises(ValueError):
        decompose_matrix(real_cosets, M)


@pytest.mark.parametrize("name", ["fixtures", *sorted(LADDER), "battery_seed_13"])
def test_chi_is_the_ratio_of_orbit_sizes(name, all_realized):
    # an arrow g's orbit has |g|_l pairs over each point of X_src g and
    # |g|_r under each point of X_tgt g, so chi(g) = |X_tgt g| / |X_src g|;
    # orbit_size is held to the pair-by-pair walk in test_pair_orbits_oracle
    if name == "fixtures":
        reals = list(all_realized.values())
    else:
        specs = random_coset_specs(300, seed=13) if name == "battery_seed_13" else [LADDER[name]]
        reals = [orbit_atoms(coset_union_action(spec)) for spec in specs]
    for real in reals:
        H, W, size = real.hypergroupoid, weights(real), unit_sizes(real)
        for g in range(H.n_arrows):
            src, tgt = size[H.src[g]], size[H.tgt[g]]
            assert W.left[g] * src == real.orbit_size[g] == W.right[g] * tgt
            assert chi(W, g) == Fraction(tgt, src)


# ---------------------------------------------------------------------------
# semi-simple structure


def test_semisimple_counts_match_the_realized_counts(real_regular, real_mixed):
    for real in (real_regular, real_mixed):
        H = real.hypergroupoid
        n = H.n_arrows
        for a in range(n):
            for g in range(n):
                for gp in range(n):
                    assert mu_semisimple(H, a, g, gp) == \
                        count_mu(real, a, g, gp)


def test_semisimple_counts_from_the_abstract_table(real_regular):
    # same comparison through the quantale round trip, which forgets the
    # realization entirely
    H = from_quantale(to_quantale(real_regular.hypergroupoid))
    for a in range(6):
        for g in range(6):
            for gp in range(6):
                assert mu_semisimple(H, a, g, gp) == \
                    count_mu(real_regular, a, g, gp)


def test_semisimple_counts_need_semisimplicity(real_cosets):
    with pytest.raises(NotSemisimple):
        mu_semisimple(real_cosets.hypergroupoid, 0, 1, 1)


def test_left_finiteness_witness(w_regular, w_cosets, w_mixed):
    # simple arrows certify themselves through their source identity
    for g in range(6):
        assert left_finite_witness(w_regular, g) == (0, frozenset((g,)))
    # the double coset arrow needs the quotient maps of the union
    assert left_finite_witness(w_cosets, 1) is None
    u, image = left_finite_witness(w_mixed, 13)
    assert u == 9
    assert image == frozenset((10, 11))
    assert w_mixed.left[13] == len(image) == 2


def test_simplicity_matches_unit_left_weight(all_weighted):
    from hyperq.hypergroupoid import is_simple
    for W in all_weighted.values():
        for g in range(W.base.n_arrows):
            assert is_simple(W.base, g) == (W.left[g] == 1)
