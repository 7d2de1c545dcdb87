"""The one result type of the law checkers.

Every checker returns a ``Report`` of ``Check``s.  A check's
counterexample is its first failure, never stored apart from it, and a
search that stops at its first failure keeps exactly that one.  The
quantale and hypergroupoid laws count in ``checked`` the instances their
notes state.
"""

import pytest

from conftest import DATA
from hyperq.algebra import validate_weights
from hyperq.checks import Check, Report
from hyperq.fixtures import delta_quantale, delta_quantale_mutated
from hyperq.hypergroupoid import check_hg_axioms, check_morphism, from_quantale, to_quantale
from hyperq.io import load_input
from hyperq.qsets import (
    check_modular_action,
    check_q_bilinear,
    check_qfunction,
    check_qset,
    qmatrix,
    qset,
    quantale_lattice,
)
from hyperq.quantale import check_axioms
from hyperq.realization import orbit_atoms
from table_dicts import comp_dict


def test_report_queries():
    report = Report((Check("A", True, 3), Check("B", False, 2, ((1,), (2,)), "n")))
    assert not report.ok
    assert report.result("B").counterexample == (1,)
    assert [r.name for r in report.failing()] == ["B"]
    assert report.result("A").counterexample is None
    with pytest.raises(KeyError):
        report.result("C")
    assert Report().ok


def test_every_law_checker_returns_a_report(real_pair):
    Q = delta_quantale()
    H = real_pair.hypergroupoid
    reports = [
        check_axioms(Q),
        check_hg_axioms(from_quantale(Q)),
        validate_weights(load_input(DATA / "delta_abstract.json")[0].weighted),
        check_qset(Q, ["x"], qmatrix([[{0}]])),
        check_morphism(H, H, range(H.n_units), range(H.n_arrows)),
    ]
    for report in reports:
        assert type(report) is Report
        assert all(type(r) is Check for r in report.results)
        assert report.ok, report.failing()


def test_a_search_keeps_its_first_failure_only():
    q9 = check_axioms(delta_quantale_mutated()).result("Q9")
    assert len(q9.failures) == 1
    assert q9.counterexample == q9.failures[0]
    weights = validate_weights(load_input(DATA / "kms_bad.json")[0].weighted)
    for r in weights.failing():
        assert r.counterexample == r.failures[0]
        assert 0 < len(r.failures) <= r.checked


@pytest.mark.parametrize("name, counts", [
    # 14 arrows on 2 units: 806 composable triples, 122 composition rows
    ("s3_mixed", {"Q1": 0, "Q2": 0, "Q3": 0, "Q4": 2744, "Q5": 0, "Q6": 14, "Q7": 14,
                  "Q8": 196, "Q9": 2744, "HG1": 14, "HG2": 806, "HG3": 122}),
    # a failing table counts what it decided all the same
    ("hg3_mutated", {"Q1": 0, "Q2": 0, "Q3": 0, "Q4": 27, "Q5": 0, "Q6": 3, "Q7": 3,
                     "Q8": 9, "Q9": 27, "HG1": 3, "HG2": 27, "HG3": 9}),
])
def test_law_checks_count_what_their_notes_state(name, counts):
    spec, _ = load_input(DATA / f"{name}.json")
    H = spec.weighted.base if spec.weighted is not None else orbit_atoms(spec.action).hypergroupoid
    results = check_axioms(to_quantale(H)).results + check_hg_axioms(H).results
    assert {r.name: r.checked for r in results} == counts
    n = H.n_arrows
    assert counts["HG2"] == sum(H.src[x] == H.tgt[y] and H.src[y] == H.tgt[z]
                                for x in range(n) for y in range(n) for z in range(n))
    assert counts["HG3"] == sum(map(len, comp_dict(H).values()))
    notes = {r.name: r.note for r in results}
    for law in ("Q4", "Q6", "Q7", "Q8", "Q9"):
        assert notes[law].startswith(f"{counts[law]} atom")


def _counts(report):
    return {r.name: r.checked for r in report.results}


def test_qset_and_relation_laws_count_their_ranges(real_pair):
    # the quantale of two points: 4 atoms, the pair orbits (x, y)
    Q = to_quantale(real_pair.hypergroupoid)
    points = qmatrix([[{0}, {1}], [{2}, {3}]])
    # S1, S2', absorption: the n**2 pairs; S2: the n**3 triples
    assert _counts(check_qset(Q, (0, 1), points)) == {
        "S1": 4, "S2": 8, "S2'": 4, "absorption": 4}
    # a failing bracket counts what it decided all the same
    assert _counts(check_qset(Q, (0, 1), qmatrix([[{0}, {1}], [{1}, {3}]]))) == {
        "S1": 4, "S2": 8}
    # from one point into two: ny = 2, nx = 1
    X, Y = qset(Q, ("*",), qmatrix([[{0}]])), qset(Q, (0, 1), points)
    counts = {"R1": 4, "R2": 2, "R1'": 2, "R2'": 2, "F1": 4, "F2": 1, "F2'": 1}
    assert _counts(check_qfunction(Q, X, Y, qmatrix([[{0}], [{2}]]))) == counts
    discrete = qset(Q, (0, 1), qmatrix([[{0}, set()], [set(), {3}]]))
    report = check_qfunction(Q, X, discrete, qmatrix([[{0}], [{2}]]))
    assert not report.result("F1").passed
    # F2' is decided only when F1 and F2 hold
    assert _counts(report) == {law: n for law, n in counts.items() if law != "F2'"}


def test_module_laws_count_their_ranges():
    # two atoms acting on the 4 elements of the quantale
    for Q in (delta_quantale(), delta_quantale_mutated()):
        action = quantale_lattice(Q)
        # join-bilinear: 2 bottom rows and 2 * 4 * 4 joins; assoc: 4 * 2 * 2;
        # unit: 4; modular: 2 * 4 * 4
        assert _counts(check_modular_action(Q, action)) == {
            "join-bilinear": 34, "assoc": 16, "unit": 4, "modular": 32}
        lat = action.lattice
        for f in (lat.join, [[lat.meet(a, b) for b in range(4)] for a in range(4)]):
            # bottom: 4 + 4 rows; join-bilinear: 4 * 4 * (4 + 4); cond: 2 * 4 * 4
            assert _counts(check_q_bilinear(Q, action, action, action, f)) == {
                "bottom": 8, "join-bilinear": 128, "cond-1": 32, "cond-2": 32, "cond-3": 32}
