"""End-to-end acceptance battery.

Ten numbered checks, each printing one PASS or FAIL line (run with -s
to see them all) and each holding a pinned runtime budget.  These are
deliberately coarse: they re-derive the worked small examples from
scratch, compare against independent oracles, and pin down CLI output
determinism.  The fine-grained behavior lives in the per-module tests.
"""

import contextlib
import io as _io
import random
import time
from fractions import Fraction

import numpy as np

from conftest import DATA
from hyperq import cli
from hyperq.algebra import (
    chi,
    eta,
    kms_check,
    mu_semisimple,
    mul,
    sigma,
    sigma_imag,
    validate_weights,
)
from hyperq.fixtures import (
    delta_quantale,
    random_coset_specs,
    s3_coset_action,
    s3_regular_action,
)
from hyperq.hypergroupoid import is_semisimple, to_quantale
from hyperq.io import load_input
from hyperq.qsets import check_qrelation, check_qset, qmatrix, qset
from hyperq.quantale import (
    check_axioms,
    is_grothendieck,
    mask_to_element,
    site,
)
from hyperq.realization import (
    coset_union_action,
    count_mu,
    enumerate_group,
    orbit_atoms,
    perm_inv,
    perm_mul,
    weights,
)
from numpy_oracles import membership_matrix, regular_rep
from table_dicts import comp_dict


@contextlib.contextmanager
def _criterion(number: int, name: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number:2d} ({name}): FAIL (took {elapsed:.2f}s, "
              f"budget {budget:.0f}s)")
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    print(f"criterion {number:2d} ({name}): PASS  [{elapsed:.2f}s]")


_BATTERY: list = []


def _battery():
    """F1-F4 plus fifty seeded coset actions, realized once."""
    if not _BATTERY:
        for spec in random_coset_specs(50):
            real = orbit_atoms(coset_union_action(spec))
            _BATTERY.append((real, weights(real)))
    return _BATTERY


def _random_element(H, rng):
    support = rng.sample(range(H.n_arrows), rng.randint(1, min(3, H.n_arrows)))
    return {g: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for g in support}


def test_c01_group_algebra_recovery():
    with _criterion(1, "group algebra recovery", budget=1.0):
        real = orbit_atoms(s3_regular_action())
        W = weights(real)
        H = W.base
        assert len(H.unit_names) == 1
        assert H.n_arrows == 6
        assert set(W.mu.values()) == {1} and len(W.mu) == 36

        # arrow g is the graph of right multiplication by the orbit
        # invariant of its representative pair
        elements = enumerate_group(real.action.generators, 6)
        index = {p: i for i, p in enumerate(elements)}

        def constant(g):
            x, y = real.representative[g]
            return perm_mul(perm_inv(elements[y]), elements[x])

        for a in range(6):
            for b in range(6):
                expected = real.membership[index[perm_mul(constant(b),
                                                          constant(a))] * 6]
                assert mul(W, {a: Fraction(1)}, {b: Fraction(1)}) == \
                    {int(expected): Fraction(1)}

        assert all(chi(W, g) == 1 for g in range(6))
        u = {g: Fraction(g + 1) for g in range(6)}
        for t in (0.5, 1.0):
            out = sigma(W, t, u)
            assert set(out) == set(u)
            assert all(abs(out[g] - complex(u[g])) <= 1e-12 for g in u)


def test_c02_hecke_relation():
    with _criterion(2, "hecke relation", budget=1.0):
        real = orbit_atoms(s3_coset_action())
        W = weights(real)
        d = {1: Fraction(1)}
        assert mul(W, d, d) == {0: Fraction(2), 1: Fraction(1)}

        # independent oracle: square the 0/1 incidence matrix of the
        # off-diagonal orbit and read the path counts off the orbits
        labels = membership_matrix(real)
        M = (labels == 1).astype(int)
        M2 = M @ M
        unit_mask = (labels == 0).astype(int)
        assert np.array_equal(M2, 2 * unit_mask + 1 * M)


def test_c03_weight_identities(all_weighted):
    with _criterion(3, "weight identities", budget=30.0):
        checked = 0
        for W in all_weighted.values():
            report = validate_weights(W)
            assert report.ok, [r.name for r in report.results if not r.passed]
            checked += 1
        for _, W in _battery():
            report = validate_weights(W)
            assert report.ok, [r.name for r in report.results if not r.passed]
            checked += 1
        assert checked == 54


def test_c04_character_laws(all_weighted):
    with _criterion(4, "character laws", budget=10.0):
        tables = list(all_weighted.values()) + [W for _, W in _battery()]
        for W in tables:
            H = W.base
            for g in range(H.n_arrows):
                assert H.star[H.star[g]] == g
                assert chi(W, H.star[g]) == 1 / chi(W, g)
            for (b, a), out in comp_dict(H).items():
                expect = chi(W, b) * chi(W, a)
                for c in out:
                    assert chi(W, c) == expect
        mixed = all_weighted["mixed"]
        assert chi(mixed, 9) == Fraction(1, 2)


def test_c05_kms_condition(all_weighted):
    with _criterion(5, "kms condition", budget=10.0):
        tables = list(all_weighted.values()) + [W for _, W in _battery()]
        for W in tables:
            report = kms_check(W)
            assert not report.failures
            assert report.checked == W.base.n_arrows ** 2
        W = all_weighted["mixed"]
        q, qp = 9, W.base.star[9]
        lhs = eta(W, mul(W, {q: Fraction(1)}, sigma_imag(W, {qp: Fraction(1)})))
        rhs = eta(W, mul(W, {qp: Fraction(1)}, {q: Fraction(1)}))
        assert lhs == rhs == 1


def test_c06_matrix_oracle(all_realized, all_weighted):
    with _criterion(6, "matrix representation oracle", budget=10.0):
        rng = random.Random(6)
        for key in all_realized:
            real, W = all_realized[key], all_weighted[key]
            for _ in range(100):
                u = _random_element(W.base, rng)
                v = _random_element(W.base, rng)
                lhs = regular_rep(real, u) @ regular_rep(real, v)
                assert np.array_equal(lhs, regular_rep(real, mul(W, u, v)))


def test_c07_quantale_axioms(all_weighted):
    with _criterion(7, "quantale axioms", budget=60.0):
        quantales = {key: to_quantale(W.base) for key, W in all_weighted.items()}
        quantales["delta"] = delta_quantale()
        for key, Q in quantales.items():
            report = check_axioms(Q)
            assert all(r.passed for r in report.results), key

        expected = {"pair": True, "regular": True, "cosets": False,
                    "mixed": True, "delta": False}
        for key, Q in quantales.items():
            assert is_grothendieck(Q)[0] is expected[key], key
        for key, W in all_weighted.items():
            assert is_semisimple(W.base)[0] is expected[key], key


def test_c08_semisimple_formula(all_realized):
    with _criterion(8, "factorization formula", budget=5.0):
        for key in ("regular", "mixed"):
            real = all_realized[key]
            H = real.hypergroupoid
            n = H.n_arrows
            for a in range(n):
                for g in range(n):
                    for gp in range(n):
                        assert mu_semisimple(H, a, g, gp) == \
                            count_mu(real, a, g, gp)


def test_c09_site_and_qset_fragments(all_realized):
    with _criterion(9, "site and q-set fragments", budget=10.0):
        Q1 = to_quantale(all_realized["pair"].hypergroupoid)
        S = site(Q1)
        assert len(S.objects) == 4
        for q in S.objects:
            for qp in S.objects:
                assert len(S.hom(q, qp)) == len(qp) ** len(q)

        # derived laws must hold whenever the base axioms do
        Q = delta_quantale()
        rng = random.Random(9)
        base_passed = 0
        for _ in range(120):
            n = rng.randint(1, 3)
            cells = [[mask_to_element(rng.randrange(4)) for _ in range(n)]
                     for _ in range(n)]
            if rng.random() < 0.7:
                for i in range(n):
                    for j in range(i + 1, n):
                        cells[j][i] = cells[i][j]
            report = check_qset(Q, tuple(range(n)), qmatrix(cells))
            found = {r.name: r.passed for r in report.results}
            if found.get("S1") and found.get("S2"):
                base_passed += 1
                assert found["S2'"] and found["absorption"]

        top = {0, 1}
        X = qset(Q, ("x", "y"), qmatrix([[top, top], [top, top]]))
        for _ in range(80):
            table = qmatrix([[mask_to_element(rng.randrange(4))
                              for _ in range(2)] for _ in range(2)])
            report = check_qrelation(Q, X, X, table)
            found = {r.name: r.passed for r in report.results}
            if found.get("R1") and found.get("R2"):
                base_passed += 1
                assert found["R1'"] and found["R2'"]
        assert base_passed >= 10


def _cli_invocations():
    files = {key: DATA / f"{key}.json" for key in
             ("trivial2", "s3_regular", "s3_cosets", "s3_mixed",
              "delta_abstract")}
    for key, path in files.items():
        elem = "[d]" if key == "delta_abstract" else "[a1]"
        for fmt in ("table", "json"):
            yield ["atoms", str(path), "--format", fmt]
            yield ["algebra", str(path), "--format", fmt]
            yield ["check", str(path), "--samples", "200", "--seed", "1",
                   "--format", fmt]
            yield ["kms", str(path), "--format", fmt]
            yield ["evolve", str(path), "--t", "0.7", "--element", elem,
                   "--format", fmt]
            yield ["convolve", str(path), "--f", f"2*{elem}", "--g", elem,
                   "--format", fmt]
            yield ["site", str(path), "--format", fmt]


def _run_cli(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_c10_cli_determinism():
    with _criterion(10, "cli determinism"):
        runs = 0
        for argv in _cli_invocations():
            assert _run_cli(argv) == _run_cli(argv), argv
            runs += 1
        assert runs == 70
