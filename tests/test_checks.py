"""The one result type of the law checkers.

Every checker returns a ``Report`` of ``Check``s.  A check's
counterexample is its first failure, never stored apart from it, and a
search that stops at its first failure keeps exactly that one.
"""

import pytest

from conftest import DATA
from hyperq.algebra import adjoint_check, validate_weights
from hyperq.checks import Check, Report
from hyperq.fixtures import delta_quantale, delta_quantale_mutated
from hyperq.hypergroupoid import check_hg_axioms, from_quantale
from hyperq.io import load_input
from hyperq.qsets import check_qset, qmatrix
from hyperq.quantale import check_axioms


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
    reports = [
        check_axioms(Q),
        check_hg_axioms(from_quantale(Q)),
        validate_weights(load_input(DATA / "delta_abstract.json")[0].weighted),
        check_qset(Q, ["x"], qmatrix([[{0}]])),
        adjoint_check(real_pair),
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
