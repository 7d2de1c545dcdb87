"""Matrices over a quantale, projection objects, Q-sets and modular actions.

Matrices multiply by joining entrywise products,
(M N)[i, k] = join over j of M[i, j] N[j, k].  A projection object is a
square matrix P with P P = P and P* = P; a morphism (J, P') -> (I, P) is
an I x J matrix M absorbed on both sides (P M = M, M P' = M), and it is
functional when M M* <= P and P' <= M* M.

A Q-set is a carrier X with a bracket [x, y] subject to

    S1   [x, y] = [y, x]*
    S2   [x, y] [y, z] <= [x, z]

For brackets passing S1 and S2 the saturated transitivity

    S2'  [x, y] = join over t of [x, t] [t, y]

and the absorption identities [x, x] [x, y] = [x, y] = [x, y] [y, y]
follow; the checkers verify the consequences hold and report any
discrepancy.  Q-relations and Q-functions between Q-sets follow the same
pattern with the compatibility (R1, R2), single-valuedness (F1) and
totality (F2) laws and their primed saturated forms.  Every checker
returns a ``Report`` with one ``Check`` per law, which counts in
``checked`` the instances its search ranges over; a failing law keeps
its first failing tuple as its one failure.

``check_modular_action`` verifies that a finite sup-lattice with a right
atom action is a module (join-bilinear, associative, unital) satisfying

    m & (n q)  <=  ((m q*) & n) q

and ``check_q_bilinear`` exposes the three bilinearity conditions for a
binary map of right modules.  Both decide them over the atoms q = {j}
alone, exactly: once f and the actions preserve joins, each left side
at q is the join of its values at the atoms of q and each right side
dominates them.  The modular law also needs meet to distribute over
joins.  A lattice that is not distributive (``check_modular_action``)
and an action that does not preserve joins (``check_q_bilinear``) raise
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .checks import Check, Report, first_failure
from .errors import DimensionMismatch
from .quantale import AtomicQuantale, QElement, mask_to_element, q_mul, q_star, unit_element


@dataclass(frozen=True)
class QuantaleMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[QElement, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(row) != self.cols for row in self.entries):
            raise DimensionMismatch(f"entries must form a {self.rows}x{self.cols} table")

    def __getitem__(self, key) -> QElement:
        i, j = key
        return self.entries[i][j]


def qmatrix(entries) -> QuantaleMatrix:
    rows = tuple(tuple(frozenset(cell) for cell in row) for row in entries)
    return QuantaleMatrix(rows=len(rows), cols=len(rows[0]) if rows else 0, entries=rows)


def zero_matrix(rows: int, cols: int) -> QuantaleMatrix:
    empty = frozenset()
    return QuantaleMatrix(rows, cols, tuple(tuple(empty for _ in range(cols))
                                            for _ in range(rows)))


def identity_matrix(Q: AtomicQuantale, n: int) -> QuantaleMatrix:
    unit = unit_element(Q)
    empty = frozenset()
    return QuantaleMatrix(n, n, tuple(
        tuple(unit if i == j else empty for j in range(n)) for i in range(n)))


def matmul(Q: AtomicQuantale, M: QuantaleMatrix, N: QuantaleMatrix) -> QuantaleMatrix:
    if M.cols != N.rows:
        raise DimensionMismatch(f"cannot multiply {M.rows}x{M.cols} by {N.rows}x{N.cols}")
    out = []
    for i in range(M.rows):
        row = []
        for k in range(N.cols):
            acc: set[int] = set()
            for j in range(M.cols):
                acc |= q_mul(Q, M[i, j], N[j, k])
            row.append(frozenset(acc))
        out.append(tuple(row))
    return QuantaleMatrix(M.rows, N.cols, tuple(out))


def star_transpose(Q: AtomicQuantale, M: QuantaleMatrix) -> QuantaleMatrix:
    return QuantaleMatrix(M.cols, M.rows, tuple(
        tuple(q_star(Q, M[i, j]) for i in range(M.rows)) for j in range(M.cols)))


def entrywise_le(M: QuantaleMatrix, N: QuantaleMatrix) -> bool:
    if (M.rows, M.cols) != (N.rows, N.cols):
        raise DimensionMismatch(f"cannot compare {M.rows}x{M.cols} with {N.rows}x{N.cols}")
    return all(M[i, j] <= N[i, j] for i in range(M.rows) for j in range(M.cols))


# ---------------------------------------------------------------------------
# projections


@dataclass(frozen=True)
class ProjObject:
    index: tuple
    matrix: QuantaleMatrix

    @property
    def size(self) -> int:
        return len(self.index)


def is_proj_object(Q: AtomicQuantale, index, P: QuantaleMatrix) -> bool:
    if P.rows != P.cols or P.rows != len(tuple(index)):
        return False
    return matmul(Q, P, P) == P and star_transpose(Q, P) == P


def proj_object(Q: AtomicQuantale, index, P: QuantaleMatrix) -> ProjObject:
    index = tuple(index)
    if not is_proj_object(Q, index, P):
        raise ValueError("matrix is not an idempotent self-adjoint projection")
    return ProjObject(index=index, matrix=P)


def is_proj_morphism(Q: AtomicQuantale, src: ProjObject, dst: ProjObject,
                     M: QuantaleMatrix) -> bool:
    """Absorption on both sides: dst.P M = M and M src.P = M."""
    if (M.rows, M.cols) != (dst.size, src.size):
        raise DimensionMismatch(
            f"morphism must be {dst.size}x{src.size}, got {M.rows}x{M.cols}")
    return matmul(Q, dst.matrix, M) == M and matmul(Q, M, src.matrix) == M


def is_functional(Q: AtomicQuantale, src: ProjObject, dst: ProjObject,
                  M: QuantaleMatrix) -> bool:
    """M M* <= dst.P (single-valued) and src.P <= M* M (total)."""
    if not is_proj_morphism(Q, src, dst, M):
        return False
    Mstar = star_transpose(Q, M)
    return (entrywise_le(matmul(Q, M, Mstar), dst.matrix)
            and entrywise_le(src.matrix, matmul(Q, Mstar, M)))


# ---------------------------------------------------------------------------
# Q-sets


@dataclass(frozen=True)
class QSet:
    carrier: tuple
    bracket: QuantaleMatrix


def _join(cells) -> QElement:
    acc: set[int] = set()
    for c in cells:
        acc |= c
    return frozenset(acc)


def check_qset(Q: AtomicQuantale, carrier, bracket: QuantaleMatrix) -> Report:
    """Check S1 and S2 over the carrier; when they hold, the saturated
    form S2' and the absorption identities are consequences and any
    failure of them is reported as a derived-law discrepancy."""
    carrier = tuple(carrier)
    n = len(carrier)
    if (bracket.rows, bracket.cols) != (n, n):
        raise DimensionMismatch(f"bracket must be {n}x{n}, got {bracket.rows}x{bracket.cols}")
    results = []

    s1 = next((
        (carrier[x], carrier[y]) for x in range(n) for y in range(n)
        if bracket[x, y] != q_star(Q, bracket[y, x])), None)
    results.append(first_failure("S1", s1, checked=n * n))

    s2 = next((
        (carrier[x], carrier[y], carrier[z])
        for x in range(n) for y in range(n) for z in range(n)
        if not q_mul(Q, bracket[x, y], bracket[y, z]) <= bracket[x, z]), None)
    results.append(first_failure("S2", s2, checked=n ** 3))

    if s1 is None and s2 is None:
        s2p = next((
            (carrier[x], carrier[y]) for x in range(n) for y in range(n)
            if _join(q_mul(Q, bracket[x, t], bracket[t, y]) for t in range(n))
            != bracket[x, y]), None)
        results.append(first_failure("S2'", s2p, checked=n * n))
        absorb = next((
            (carrier[x], carrier[y]) for x in range(n) for y in range(n)
            if q_mul(Q, bracket[x, x], bracket[x, y]) != bracket[x, y]
            or q_mul(Q, bracket[x, y], bracket[y, y]) != bracket[x, y]), None)
        results.append(first_failure("absorption", absorb, checked=n * n))
    return Report(tuple(results))


def qset(Q: AtomicQuantale, carrier, bracket: QuantaleMatrix) -> QSet:
    report = check_qset(Q, carrier, bracket)
    if not report.ok:
        bad = report.failing()[0]
        raise ValueError(f"bracket violates {bad.name} at {bad.counterexample}")
    return QSet(carrier=tuple(carrier), bracket=bracket)


def singleton_qset(Q: AtomicQuantale) -> QSet:
    """The one-point Q-set whose bracket is the unit element."""
    return QSet(carrier=("*",), bracket=qmatrix([[unit_element(Q)]]))


def check_qrelation(Q: AtomicQuantale, X: QSet, Y: QSet,
                    table: QuantaleMatrix) -> Report:
    """Compatibility of a |Y| x |X| table with the two brackets:

        R1  [y, y']_Y R(y', x) <= R(y, x), equality when y = y'
        R2  R(y, x') [x', x]_X <= R(y, x), equality when x = x'

    and, when both hold, the saturated forms R1' and R2' (joins over the
    middle index equal the table) are consequences, checked the same way."""
    ny, nx = len(Y.carrier), len(X.carrier)
    if (table.rows, table.cols) != (ny, nx):
        raise DimensionMismatch(f"table must be {ny}x{nx}, got {table.rows}x{table.cols}")
    bx, by = X.bracket, Y.bracket
    results = []

    r1 = None
    for y, yp, x in iproduct(range(ny), range(ny), range(nx)):
        lhs = q_mul(Q, by[y, yp], table[yp, x])
        if not lhs <= table[y, x] or (y == yp and lhs != table[y, x]):
            r1 = (Y.carrier[y], Y.carrier[yp], X.carrier[x])
            break
    results.append(first_failure("R1", r1, checked=ny * ny * nx))

    r2 = None
    for y, xp, x in iproduct(range(ny), range(nx), range(nx)):
        lhs = q_mul(Q, table[y, xp], bx[xp, x])
        if not lhs <= table[y, x] or (x == xp and lhs != table[y, x]):
            r2 = (Y.carrier[y], X.carrier[xp], X.carrier[x])
            break
    results.append(first_failure("R2", r2, checked=ny * nx * nx))

    if r1 is None and r2 is None:
        r1p = next((
            (Y.carrier[y], X.carrier[x]) for y in range(ny) for x in range(nx)
            if _join(q_mul(Q, by[y, yp], table[yp, x]) for yp in range(ny))
            != table[y, x]), None)
        results.append(first_failure("R1'", r1p, checked=ny * nx))
        r2p = next((
            (Y.carrier[y], X.carrier[x]) for y in range(ny) for x in range(nx)
            if _join(q_mul(Q, table[y, xp], bx[xp, x]) for xp in range(nx))
            != table[y, x]), None)
        results.append(first_failure("R2'", r2p, checked=ny * nx))
    return Report(tuple(results))


def check_qfunction(Q: AtomicQuantale, X: QSet, Y: QSet,
                    table: QuantaleMatrix) -> Report:
    """Q-relation laws plus single-valuedness and totality:

        F1  R(y, x) R(y', x)* <= [y, y']_Y
        F2  [x, x]_X <= join over y of R(y, x)* R(y, x)

    with the strengthened F2' ([x, x'] bounded by the join of
    R(y, x)* R(y, x')) checked as a consequence when R2 holds."""
    rel = check_qrelation(Q, X, Y, table)
    results = list(rel.results)
    ny, nx = len(Y.carrier), len(X.carrier)
    bx, by = X.bracket, Y.bracket

    f1 = next((
        (Y.carrier[y], Y.carrier[yp], X.carrier[x])
        for y in range(ny) for yp in range(ny) for x in range(nx)
        if not q_mul(Q, table[y, x], q_star(Q, table[yp, x])) <= by[y, yp]), None)
    results.append(first_failure("F1", f1, checked=ny * ny * nx))

    f2 = next((
        (X.carrier[x],) for x in range(nx)
        if not bx[x, x] <= _join(
            q_mul(Q, q_star(Q, table[y, x]), table[y, x]) for y in range(ny))), None)
    results.append(first_failure("F2", f2, checked=nx))

    if rel.ok and f1 is None and f2 is None:
        f2p = next((
            (X.carrier[x], X.carrier[xp]) for x in range(nx) for xp in range(nx)
            if not bx[x, xp] <= _join(
                q_mul(Q, q_star(Q, table[y, x]), table[y, xp]) for y in range(ny))), None)
        results.append(first_failure("F2'", f2p, checked=nx * nx))
    return Report(tuple(results))


# ---------------------------------------------------------------------------
# sup-lattices with a right action


@dataclass(frozen=True)
class FiniteLattice:
    """A finite sup-lattice given by its binary join table."""

    size: int
    join: tuple[tuple[int, ...], ...]
    bottom: int

    def le(self, a: int, b: int) -> bool:
        return self.join[a][b] == b

    def join_all(self, items) -> int:
        acc = self.bottom
        for m in items:
            acc = self.join[acc][m]
        return acc

    def meet(self, a: int, b: int) -> int:
        lower = [t for t in range(self.size) if self.le(t, a) and self.le(t, b)]
        return self.join_all(lower)


def build_lattice(join) -> FiniteLattice:
    join = tuple(tuple(row) for row in join)
    n = len(join)
    if any(len(row) != n for row in join):
        raise ValueError("join table must be square")
    for a in range(n):
        if join[a][a] != a:
            raise ValueError("join must be idempotent")
        for b in range(n):
            if join[a][b] != join[b][a]:
                raise ValueError("join must be commutative")
            for c in range(n):
                if join[join[a][b]][c] != join[a][join[b][c]]:
                    raise ValueError("join must be associative")
    bottoms = [b for b in range(n) if all(join[b][x] == x for x in range(n))]
    if len(bottoms) != 1:
        raise ValueError("lattice needs a unique bottom")
    return FiniteLattice(size=n, join=join, bottom=bottoms[0])


@dataclass(frozen=True)
class RightAction:
    """Right action of the atoms on a finite sup-lattice, extended to
    elements by joins (the empty element acts as the constant bottom)."""

    lattice: FiniteLattice
    table: tuple[tuple[int, ...], ...]   # table[m][atom] -> element

    def act(self, m: int, q: QElement) -> int:
        return self.lattice.join_all(self.table[m][j] for j in sorted(q))


def quantale_lattice(Q: AtomicQuantale) -> RightAction:
    """The quantale acting on itself by right multiplication; lattice
    elements are the 2**n bitmask elements."""
    n = Q.n_atoms
    N = 1 << n
    join = tuple(tuple(a | b for b in range(N)) for a in range(N))
    lat = build_lattice(join)
    table = []
    for m in range(N):
        elem = mask_to_element(m)
        row = []
        for j in range(n):
            prod = q_mul(Q, elem, frozenset((j,)))
            acc = 0
            for k in prod:
                acc |= 1 << k
            row.append(acc)
        table.append(tuple(row))
    return RightAction(lattice=lat, table=tuple(table))


def _join_failure(Q: AtomicQuantale, action: RightAction):
    """The first (bottom, j) with bottom j != bottom (the empty join),
    else the first (m, m', j) with (m v m') j != m j v m' j; else None."""
    lat, table = action.lattice, action.table
    bad = next(((lat.bottom, j) for j in range(Q.n_atoms)
                if table[lat.bottom][j] != lat.bottom), None)
    if bad is None:
        bad = next((
            (m, mp, j) for m in range(lat.size) for mp in range(lat.size)
            for j in range(Q.n_atoms)
            if table[lat.join[m][mp]][j] != lat.join[table[m][j]][table[mp][j]]), None)
    return bad


def _distributive_meets(lat: FiniteLattice) -> list[list[int]]:
    """The meet table, once it is known that a & (b v c) = (a & b) v (a & c)
    for all a, b and c; ValueError at the first (a, b, c) where not."""
    n, join = lat.size, lat.join
    meet = [[lat.meet(a, b) for b in range(n)] for a in range(n)]
    bad = next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]), None)
    if bad is not None:
        raise ValueError(f"lattice is not distributive at {bad}")
    return meet


def check_modular_action(Q: AtomicQuantale, action: RightAction) -> Report:
    """Module laws and the modular inequality m & n q <= ((m q*) & n) q,
    decided over the atoms q = {j}: exact when the join-bilinear row
    holds and the lattice is distributive, and ``ValueError`` before any
    law when it is not distributive."""
    lat = action.lattice
    n = lat.size
    table = action.table
    meet = _distributive_meets(lat)
    # the empty join m {} is the lattice bottom by construction, and
    # join-bilinear's (bottom, j) rows test what an action can get wrong
    # about it
    atoms = Q.n_atoms
    results = [first_failure("join-bilinear", _join_failure(Q, action),
                             checked=atoms * (1 + n * n))]

    assoc = next((
        (m, i, j) for m in range(n) for i in range(Q.n_atoms) for j in range(Q.n_atoms)
        if action.act(m, q_mul(Q, frozenset((i,)), frozenset((j,))))
        != table[table[m][i]][j]), None)
    results.append(first_failure("assoc", assoc, checked=n * atoms * atoms))

    unit = next((
        (m,) for m in range(n) if action.act(m, unit_element(Q)) != m), None)
    results.append(first_failure("unit", unit, checked=n))

    # m {j}* is table[m][star j]
    star = Q.star
    mod = next((
        (m, nn, (j,)) for j in range(Q.n_atoms) for m in range(n) for nn in range(n)
        if not lat.le(meet[m][table[nn][j]], table[meet[table[m][star[j]]][nn]][j])), None)
    results.append(first_failure("modular", mod, checked=atoms * n * n))
    return Report(tuple(results))


def check_q_bilinear(Q: AtomicQuantale, act_a: RightAction, act_b: RightAction,
                     act_c: RightAction, f) -> Report:
    """The three conditions for a bilinear map of right modules
    f: A x B -> C (f given as a nested table):

        1.  f(a q, b)  <=  f(a, b q*) q
        2.  f(a, b q)  <=  f(a q*, b) q
        3.  f(a, b) q  <=  f(a q, b q)

    plus join-bilinearity of f itself in each argument.  Conditions 1-3
    are decided over the atoms q = {j}, exactly when f passes the bottom
    and join-bilinear rows; an action that does not preserve joins is
    refused with ``ValueError`` naming it."""
    for name, action in (("act_a", act_a), ("act_b", act_b), ("act_c", act_c)):
        bad = _join_failure(Q, action)
        if bad is not None:
            raise ValueError(f"{name} does not preserve joins at {bad}")
    A, B, C = act_a.lattice, act_b.lattice, act_c.lattice
    results = []

    bot = (all(f[A.bottom][b] == C.bottom for b in range(B.size))
           and all(f[a][B.bottom] == C.bottom for a in range(A.size)))
    results.append(Check("bottom", bot, A.size + B.size))

    bil = next((
        (a, ap, b) for a in range(A.size) for ap in range(A.size) for b in range(B.size)
        if f[A.join[a][ap]][b] != C.join[f[a][b]][f[ap][b]]), None)
    if bil is None:
        bil = next((
            (a, b, bp) for a in range(A.size) for b in range(B.size) for bp in range(B.size)
            if f[a][B.join[b][bp]] != C.join[f[a][b]][f[a][bp]]), None)
    results.append(first_failure("join-bilinear", bil,
                                 checked=A.size * B.size * (A.size + B.size)))

    # x {j} is table[x][j] and x {j}* is table[x][star j]
    ta, tb, tc, star = act_a.table, act_b.table, act_c.table, Q.star

    def first(fails):
        return next(((a, b, (j,)) for j in range(Q.n_atoms) for a in range(A.size)
                     for b in range(B.size) if fails(a, b, j, star[j])), None)

    triples = Q.n_atoms * A.size * B.size
    results.append(first_failure("cond-1", first(
        lambda a, b, j, js: not C.le(f[ta[a][j]][b], tc[f[a][tb[b][js]]][j])), checked=triples))
    results.append(first_failure("cond-2", first(
        lambda a, b, j, js: not C.le(f[a][tb[b][j]], tc[f[ta[a][js]][b]][j])), checked=triples))
    results.append(first_failure("cond-3", first(
        lambda a, b, j, js: not C.le(tc[f[a][b]][j], f[ta[a][j]][tb[b][j]])), checked=triples))
    return Report(tuple(results))
