"""Matrices over a quantale, projections, Q-sets, Q-relations and
modular right actions.

The two-point relation table supplies the worked examples: its sixteen
1x1 matrices over the full unit contain exactly the four total function
graphs, the two-point carrier with singleton-pair brackets is the
motivating Q-set, and right multiplication on the subset lattice is the
canonical modular action (it fails the modular law precisely for the
mutated product table).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq.errors import DimensionMismatch
from hyperq.fixtures import delta_quantale, delta_quantale_mutated
from hyperq.hypergroupoid import to_quantale
from hyperq.qsets import (
    QSet,
    check_modular_action,
    check_q_bilinear,
    check_qfunction,
    check_qrelation,
    check_qset,
    entrywise_le,
    identity_matrix,
    is_functional,
    is_proj_morphism,
    is_proj_object,
    matmul,
    proj_object,
    qmatrix,
    qset,
    quantale_lattice,
    singleton_qset,
    star_transpose,
    zero_matrix,
)
from hyperq.quantale import mask_to_element, unit_element


@pytest.fixture(scope="module")
def q_pair(real_pair):
    return to_quantale(real_pair.hypergroupoid)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_construction_and_indexing():
    M = qmatrix([[{0}, {1}], [set(), {0, 1}]])
    assert (M.rows, M.cols) == (2, 2)
    assert M[0, 1] == frozenset((1,))
    assert M[1, 0] == frozenset()
    Z = zero_matrix(2, 3)
    assert all(Z[i, j] == frozenset() for i in range(2) for j in range(3))


def test_matmul_joins_entrywise_products():
    Q = delta_quantale()
    d = {1}
    M = qmatrix([[d, d], [set(), {0}]])
    N = qmatrix([[{0}], [d]])
    P = matmul(Q, M, N)
    # d 1 join d d = {d} join {1, d}
    assert P[0, 0] == frozenset((0, 1))
    assert P[1, 0] == frozenset((1,))
    assert matmul(Q, identity_matrix(Q, 2), M) == M
    assert matmul(Q, M, identity_matrix(Q, 2)) == M


def test_matmul_shape_mismatch():
    Q = delta_quantale()
    with pytest.raises(DimensionMismatch):
        matmul(Q, zero_matrix(2, 3), zero_matrix(2, 3))


def test_star_transpose_is_an_anti_homomorphism(q_pair):
    M = qmatrix([[{0, 1}, {2}], [set(), {3}]])
    N = qmatrix([[{1}, set()], [{0}, {2, 3}]])
    assert star_transpose(q_pair, star_transpose(q_pair, M)) == M
    assert star_transpose(q_pair, matmul(q_pair, M, N)) == \
        matmul(q_pair, star_transpose(q_pair, N), star_transpose(q_pair, M))


masks = st.integers(min_value=0, max_value=3)


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(masks, min_size=12, max_size=12))
def test_matmul_is_associative(cells):
    Q = delta_quantale()
    e = [mask_to_element(m) for m in cells]
    A = qmatrix([[e[0], e[1]], [e[2], e[3]]])
    B = qmatrix([[e[4], e[5]], [e[6], e[7]]])
    C = qmatrix([[e[8], e[9]], [e[10], e[11]]])
    assert matmul(Q, matmul(Q, A, B), C) == matmul(Q, A, matmul(Q, B, C))


def test_entrywise_le():
    A = qmatrix([[{0}, set()]])
    B = qmatrix([[{0, 1}, {2}]])
    assert entrywise_le(A, B)
    assert not entrywise_le(B, A)


# ---------------------------------------------------------------------------
# projections


def test_unit_projection(q_pair):
    P = identity_matrix(q_pair, 1)
    assert is_proj_object(q_pair, ("*",), P)
    obj = proj_object(q_pair, ("*",), P)
    assert obj.size == 1


def test_sub_unit_projection(q_pair):
    # a single unit atom is a projection below the identity
    P = qmatrix([[{0}]])
    assert is_proj_object(q_pair, ("p",), P)


def test_non_projections_are_rejected(q_pair):
    # a single off-diagonal pair is not self-adjoint
    assert not is_proj_object(q_pair, ("p",), qmatrix([[{1}]]))
    with pytest.raises(ValueError):
        proj_object(q_pair, ("p",), qmatrix([[{1}]]))
    # shape mismatch with the index
    assert not is_proj_object(q_pair, ("p", "q"), identity_matrix(q_pair, 1))


def test_functional_morphisms_are_the_function_graphs(q_pair):
    """Of the sixteen 1x1 matrices over the unit projection, the
    functional ones are exactly the graphs of the four maps 2 -> 2."""
    one = proj_object(q_pair, ("*",), identity_matrix(q_pair, 1))
    functional = []
    for m in range(16):
        M = qmatrix([[mask_to_element(m)]])
        assert is_proj_morphism(q_pair, one, one, M)
        if is_functional(q_pair, one, one, M):
            functional.append(mask_to_element(m))
    assert sorted(functional, key=sorted) == sorted([
        frozenset((0, 3)),   # identity
        frozenset((1, 2)),   # the swap
        frozenset((0, 1)),   # constant 0
        frozenset((2, 3)),   # constant 1
    ], key=sorted)


def test_morphism_absorption_with_a_sub_unit_source(q_pair):
    sub = proj_object(q_pair, ("p",), qmatrix([[{0}]]))
    one = proj_object(q_pair, ("*",), identity_matrix(q_pair, 1))
    # pairs with input 0 are absorbed, pairs with input 1 are not
    assert is_proj_morphism(q_pair, sub, one, qmatrix([[{0, 2}]]))
    assert not is_proj_morphism(q_pair, sub, one, qmatrix([[{1}]]))
    with pytest.raises(DimensionMismatch):
        is_proj_morphism(q_pair, sub, one, zero_matrix(2, 2))


# ---------------------------------------------------------------------------
# Q-sets


def _points_qset(q_pair) -> QSet:
    # the two points with bracket [x, y] = the pair orbit atom (x, y)
    return qset(q_pair, (0, 1), qmatrix([[{0}, {1}], [{2}, {3}]]))


def test_points_form_a_qset(q_pair):
    report = check_qset(q_pair, (0, 1), qmatrix([[{0}, {1}], [{2}, {3}]]))
    assert report.ok
    assert [r.name for r in report.results] == ["S1", "S2", "S2'", "absorption"]


def test_codiscrete_and_discrete_brackets():
    Q = delta_quantale()
    top = {0, 1}
    assert check_qset(Q, ("x", "y"), qmatrix([[top, top], [top, top]])).ok
    assert check_qset(Q, ("x", "y"),
                      qmatrix([[{0}, set()], [set(), {0}]])).ok


def test_symmetry_violation_is_caught():
    Q = delta_quantale()
    report = check_qset(Q, ("x", "y"),
                        qmatrix([[{0}, {1}], [set(), {0}]]))
    assert not report.ok
    s1 = report.result("S1")
    assert not s1.passed
    assert s1.counterexample == ("x", "y")
    # derived laws are not reported when the axioms already failed
    with pytest.raises(KeyError):
        report.result("S2'")


def test_transitivity_violation_is_caught():
    Q = delta_quantale()
    report = check_qset(Q, ("x",), qmatrix([[{1}]]))
    assert report.result("S1").passed
    s2 = report.result("S2")
    assert not s2.passed
    assert s2.counterexample == ("x", "x", "x")
    with pytest.raises(ValueError):
        qset(Q, ("x",), qmatrix([[{1}]]))


def test_singleton_qset(q_pair):
    S = singleton_qset(q_pair)
    assert S.carrier == ("*",)
    assert S.bracket[0, 0] == unit_element(q_pair)
    assert check_qset(q_pair, S.carrier, S.bracket).ok


# ---------------------------------------------------------------------------
# Q-relations and Q-functions


def test_identity_is_a_qfunction(q_pair):
    X = _points_qset(q_pair)
    report = check_qfunction(q_pair, X, X, X.bracket)
    assert report.ok
    names = [r.name for r in report.results]
    assert names == ["R1", "R2", "R1'", "R2'", "F1", "F2", "F2'"]


def test_point_inclusion_is_a_qfunction(q_pair):
    # the sub-singleton on point 0 mapping into the two points
    X = qset(q_pair, ("*",), qmatrix([[{0}]]))
    Y = _points_qset(q_pair)
    table = qmatrix([[{0}], [{2}]])
    assert check_qfunction(q_pair, X, Y, table).ok


def test_empty_relation_is_not_total(q_pair):
    X = qset(q_pair, ("*",), qmatrix([[{0}]]))
    Y = _points_qset(q_pair)
    report = check_qfunction(q_pair, X, Y, zero_matrix(2, 1))
    assert report.result("R1").passed
    assert report.result("R2").passed
    assert report.result("F1").passed
    assert not report.result("F2").passed


def test_two_valued_relation_is_not_single_valued(q_pair):
    # a discrete codomain separates the two images, so F1 fails
    X = qset(q_pair, ("*",), qmatrix([[{0}]]))
    Y = qset(q_pair, (0, 1), qmatrix([[{0}, set()], [set(), {3}]]))
    table = qmatrix([[{0}], [{2}]])
    report = check_qfunction(q_pair, X, Y, table)
    assert report.result("R1").passed
    assert report.result("R2").passed
    f1 = report.result("F1")
    assert not f1.passed
    assert f1.counterexample == (0, 1, "*")


def test_relation_equality_cases_are_enforced(q_pair):
    # rows saturated over the whole codomain violate the R2 equality case
    X = _points_qset(q_pair)
    table = qmatrix([[{0, 1}, {0, 1}], [{2, 3}, {2, 3}]])
    report = check_qrelation(q_pair, X, X, table)
    assert report.result("R1").passed
    assert not report.result("R2").passed


def test_relation_table_shape_is_checked(q_pair):
    X = _points_qset(q_pair)
    with pytest.raises(DimensionMismatch):
        check_qrelation(q_pair, X, X, zero_matrix(1, 2))


# ---------------------------------------------------------------------------
# modular actions


def test_right_multiplication_is_a_modular_action(q_pair):
    for Q in (delta_quantale(), q_pair):
        action = quantale_lattice(Q)
        report = check_modular_action(Q, action)
        assert report.ok, [r for r in report.results if not r.passed]
        names = [r.name for r in report.results]
        assert names == ["join-bilinear", "assoc", "unit", "modular"]


def test_mutated_product_fails_only_the_modular_law():
    Q = delta_quantale_mutated()
    report = check_modular_action(Q, quantale_lattice(Q))
    for name in ("join-bilinear", "assoc", "unit"):
        assert report.result(name).passed
    mod = report.result("modular")
    assert not mod.passed
    # m = {d}, n = {1}, q = d: m & nq = {d} but (m q* & n) q is empty
    assert mod.counterexample == (2, 1, (1,))


def test_constant_top_action_is_not_join_bilinear():
    Q = delta_quantale()
    lat = quantale_lattice(Q).lattice
    from hyperq.qsets import RightAction
    top_row = tuple(tuple(3 for _ in range(Q.n_atoms)) for _ in range(lat.size))
    report = check_modular_action(Q, RightAction(lattice=lat, table=top_row))
    bil = report.result("join-bilinear")
    assert not bil.passed
    # the empty join must be preserved: bottom . j = bottom
    assert bil.counterexample == (0, 0)


def test_zero_action_fails_the_unit_law():
    Q = delta_quantale()
    lat = quantale_lattice(Q).lattice
    from hyperq.qsets import RightAction
    zero = tuple(tuple(0 for _ in range(Q.n_atoms)) for _ in range(lat.size))
    report = check_modular_action(Q, RightAction(lattice=lat, table=zero))
    assert report.result("join-bilinear").passed
    assert report.result("assoc").passed
    assert not report.result("unit").passed


def test_lattice_meet_is_bitwise(q_pair):
    action = quantale_lattice(delta_quantale())
    lat = action.lattice
    for a in range(lat.size):
        for b in range(lat.size):
            assert lat.meet(a, b) == a & b
            assert lat.le(a, b) == (a | b == b)


def test_meet_is_q_bilinear(q_pair):
    for Q in (delta_quantale(), q_pair):
        action = quantale_lattice(Q)
        lat = action.lattice
        meet = tuple(tuple(lat.meet(a, b) for b in range(lat.size))
                     for a in range(lat.size))
        report = check_q_bilinear(Q, action, action, action, meet)
        assert report.ok, [r for r in report.results if not r.passed]


def test_join_is_not_q_bilinear():
    Q = delta_quantale()
    action = quantale_lattice(Q)
    lat = action.lattice
    join = tuple(tuple(lat.join[a][b] for b in range(lat.size))
                 for a in range(lat.size))
    report = check_q_bilinear(Q, action, action, action, join)
    assert not report.result("bottom").passed
