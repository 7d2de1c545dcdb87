"""Realizing hypergroupoids from finite permutation group actions.

A finite group G acting on a set X induces an action on ordered pairs;
the pair orbits are the atoms of the quantale of G-invariant relations
on X and the arrows of a hypergroupoid.  Pairs are read as (output,
input): the source of an arrow is the point orbit of the second
coordinate, the target that of the first, so that composition of orbit
relations

    comp(b, a) = { orbit(x, y) | exists z with (x, z) in b, (z, y) in a }

matches "apply a, then b".

A coset input's points are the cosets gK in order of least member in
G's breadth-first listing, which holds g as the bytes of g^-1 up to
degree 256: a step g -> g s is then one ``bytes.translate``.  The pair
orbits meeting row x0, the least point of a point orbit O, are the
orbits of the stabilizer G_x0 on the points.  On a coset space G/K the
least point is the coset K itself, so G_x0 = K and its generators are
K's, read off the input; an action given by its generators alone has
them read by Schreier's lemma off a breadth-first Schreier tree of O
(C. C. Sims, *Computational methods in the study of permutation
groups*, 1970).  That row is labelled once, by least point; in either
case one breadth-first walk of O from x0 writes each other row, row(s x)
being row(x) read through s^-1, so no element is held per point of O
and a coset input builds no Schreier tree.  So arrow ids follow
the row-major order of least pairs, and each arrow's stored
representative is its lexicographically least pair (x0, least point of
its suborbit).

Structure constants are pair counts

    <a | g, g'> = #{ t | (x, t) in g and (t, y) in g' }    (x, y) in a

independent of the representative: the intersection numbers of the
coherent configuration formed by the pair orbits (D. G. Higman,
*Coherent configurations*, 1975).  The orbit labels live in one flat
list indexed x*n + y, and the constants are read off as one histogram
per arrow a: scanning t along the row of x and the column of y yields
every pair (g, g') whose composite meets a, with its count.  The counts
are kept as flat columns, the hypergroupoid's rows (g, g', a) and a
value column beside them, the one form of the table.  Left and right
weights of an arrow are its column and row counts:

    |g|_l = <e | g*, g>   (e = source identity),
    |g|_r = <e'| g, g*>   (e' = target identity).

They, chi, sigma_t and the KMS check read only the rows whose composite
is an identity arrow.  So ``orbit_atoms`` counts those rows alone, at
the representatives (x0, x0) of the identity arrows: n middle points per
unit rather than per arrow.  The whole table is counted when its rows or
values are first read, and checked there; its identity rows and values
must be the ones counted first.  ``weights`` returns the realization's
value column, not a copy and only when read, with the left/right
vectors as a weighted hypergroupoid ready for the convolution algebra.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import add

from .algebra import WeightedHypergroupoid, derived_weights, identity_checked
from .errors import HyperqError, OrderBoundExceeded
from .hypergroupoid import Hypergroupoid, Rows, column_codec, gatherer, lazy, source_order

Perm = tuple[int, ...]

GROUP_ORDER_BOUND = 10_000


# ---------------------------------------------------------------------------
# permutations


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composite p after q: (p q)(i) = p(q(i))."""
    return gatherer(q)(p)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def from_cycles(degree: int, *cycles: tuple[int, ...]) -> Perm:
    """Permutation of the given degree from disjoint cycles."""
    out = list(range(degree))
    for cyc in cycles:
        for k, i in enumerate(cyc):
            out[i] = cyc[(k + 1) % len(cyc)]
    return tuple(out)


def _check_perm(p, degree: int):
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of degree {degree}: {p!r}")


def _codec(degree: int):
    """(encode, table, compose): how an element g is held while a group is
    listed, with compose(encode(g), table(encode(s))) == encode(g s).  Up
    to degree 256 encode(g) is the bytes of g^-1, and encode(g s) = s^-1
    g^-1 is one ``bytes.translate``; above, the tuple g and one
    ``itemgetter`` call.  tuple(encode(y)) is the element held as y."""
    if degree <= 256:
        pad = bytes(range(degree, 256))
        return (lambda p: bytes(perm_inv(p))), (lambda y: y + pad), bytes.translate
    return tuple, gatherer, lambda y, t: t(y)


def _bfs(generators, degree: int, order_bound: int, codec) -> dict:
    """The generated group, held as ``codec`` holds it, each element mapped
    to its place breadth-first from the identity by generators in order."""
    encode, table, compose = codec
    steps = [table(encode(s)) for s in generators]
    index = {encode(range(degree)): 0}
    add = index.setdefault
    n = 1
    frontier = list(index)
    while frontier:
        nxt = []
        for x in frontier:
            for t in steps:
                y = compose(x, t)
                if add(y, n) == n:
                    n += 1
                    if n > order_bound:
                        raise OrderBoundExceeded(f"group order exceeds bound {order_bound}")
                    nxt.append(y)
        frontier = nxt
    return index


def enumerate_group(
    generators,
    degree: int | None = None,
    order_bound: int = GROUP_ORDER_BOUND,
) -> list[Perm]:
    """All elements of the generated group, breadth-first from the identity
    multiplying by generators in input order.  The returned order is the
    deterministic BFS discovery order, the order ``coset_union_action``
    lists the group in."""
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("need a degree when there are no generators")
        degree = len(gens[0])
    for g in gens:
        _check_perm(g, degree)
    codec = _codec(degree)
    return [tuple(codec[0](y)) for y in _bfs(gens, degree, order_bound, codec)]


# ---------------------------------------------------------------------------
# actions and coset spaces


@dataclass(frozen=True)
class PermAction:
    """A finite set {0..n_points-1} with a list of generating permutations.

    ``stabilizers`` is set only by ``coset_union_action``, which knows
    them: one tuple per point orbit, in order of least point, of
    generators of the stabilizer of that orbit's least point, as
    permutations of all the points.  It is not an argument, so neither
    a constructor call nor ``replace`` can give stale or wrong ones (an
    action built from generators alone has None), and it is not
    compared."""

    n_points: int
    generators: tuple[Perm, ...]
    stabilizers: tuple[tuple[Perm, ...], ...] | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for g in self.generators:
            _check_perm(g, self.n_points)


@dataclass(frozen=True)
class CosetSpec:
    """A group given by permutation generators plus a list of named
    subgroups; each subgroup K yields the left coset action G/K."""

    degree: int
    group_generators: tuple[Perm, ...]
    subgroups: tuple[tuple[str, tuple[Perm, ...]], ...]

    def __post_init__(self):
        for g in self.group_generators:
            _check_perm(g, self.degree)
        if not self.subgroups:
            raise ValueError("a coset spec needs at least one subgroup")
        for _, gens in self.subgroups:
            for g in gens:
                _check_perm(g, self.degree)


def coset_space(spec: CosetSpec, k: int) -> PermAction:
    """The action of the spec's generators on left cosets of subgroup k,
    with the stabilizer of its least point."""
    return coset_union_action(replace(spec, subgroups=(spec.subgroups[k],)))


def disjoint_union(actions) -> PermAction:
    """Block union of actions of the same group presentation (the i-th
    generators are identified across the summands).  The summands'
    stabilizers are dropped: they need not be images of one group."""
    actions = list(actions)
    if not actions:
        raise ValueError("disjoint_union of no actions")
    n_gens = len(actions[0].generators)
    if any(len(a.generators) != n_gens for a in actions):
        raise ValueError("all summands must list the same generators")
    total = sum(a.n_points for a in actions)
    gens = []
    for i in range(n_gens):
        block = []
        offset = 0
        for a in actions:
            block.extend(offset + p for p in a.generators[i])
            offset += a.n_points
        gens.append(tuple(block))
    return PermAction(n_points=total, generators=tuple(gens))


def coset_union_action(spec: CosetSpec) -> PermAction:
    """Disjoint union of the coset actions of every listed subgroup; the
    group and its index are built once for all of them.

    The group is listed once, breadth-first from the identity as
    ``enumerate_group`` lists it, into one dict that is both its seen-set
    and its index.  In that order each element g not yet placed opens
    the next point gK, so points come in order of least member, the
    least point of G/K is K, and its stabilizer is K: the action carries
    the images of K's generators as that orbit's stabilizer."""
    codec = encode, table, compose = _codec(spec.degree)
    index = _bfs(spec.group_generators, spec.degree, GROUP_ORDER_BOUND, codec)
    # per point gK of the union: the table of g, its least member, and the
    # point each element lies in, in the coset space of gK
    tables, labels = [], []
    for name, k_gens in spec.subgroups:
        for g in k_gens:
            if encode(g) not in index:
                raise ValueError(f"subgroup {name!r} generator outside the group")
        # K's keys are its elements encoded: their tables step by every k in K
        k_tables = list(map(table, _bfs(k_gens, spec.degree, GROUP_ORDER_BOUND, codec)))
        label = [-1] * len(index)
        for i, g in enumerate(index):
            if label[i] < 0:
                for t in k_tables:
                    label[index[compose(g, t)]] = len(tables)
                tables.append(table(g))
                labels.append(label)

    def image(h) -> Perm:
        # left multiplication h(gK) = (hg)K, on every point
        h = encode(h)
        return tuple([label[index[compose(h, t)]] for t, label in zip(tables, labels)])

    action = PermAction(len(tables), tuple(map(image, spec.group_generators)))
    object.__setattr__(action, "stabilizers",
                       tuple(tuple(map(image, k_gens)) for _, k_gens in spec.subgroups))
    return action


# ---------------------------------------------------------------------------
# pair orbits


@dataclass(frozen=True, eq=False)
class ConcreteRealization:
    """Pair-orbit data of an action, with the assembled hypergroupoid.

    membership[x * n_points + y] is the arrow id of the orbit through
    (x, y); representative[g] is the least pair of orbit g in
    lexicographic order; identity_values[i] is <e | b, a> for row
    i = (b, a, e) of the hypergroupoid's identity rows.  ``table``
    counts the whole table, rows and values, once.  values[i] is
    <c | b, a> for row i = (b, a, c) of the hypergroupoid's rows, built
    on first access, with the rows."""

    action: PermAction
    hypergroupoid: Hypergroupoid
    point_orbit: tuple[int, ...]
    unit_points: tuple[tuple[int, ...], ...]
    membership: list[int] = field(repr=False)
    representative: tuple[tuple[int, int], ...]
    orbit_size: tuple[int, ...]
    identity_values: tuple[int, ...] = field(repr=False)
    table: Callable[[], tuple[Rows, tuple[int, ...]]] = field(repr=False)

    @lazy
    def values(self) -> tuple[int, ...]:
        # counts, one per row by construction
        return identity_checked(self.hypergroupoid, self.table()[1], self.identity_values)

    @property
    def n_points(self) -> int:
        return self.action.n_points

    @property
    def n_arrows(self) -> int:
        return len(self.representative)


def _point_orbits(n: int, generators) -> tuple[list[int], list[list[int]]]:
    """Orbits of the generated group on {0..n-1}: each point's orbit id and
    each orbit's sorted points, orbits ordered by their least point."""
    orbit = [-1] * n
    groups: list[list[int]] = []
    for start in range(n):
        if orbit[start] >= 0:
            continue
        orbit[start] = oid = len(groups)
        members = [start]
        for x in members:   # breadth-first: the list grows as it is walked
            for s in generators:
                if orbit[y := s[x]] < 0:
                    orbit[y] = oid
                    members.append(y)
        groups.append(sorted(members))
    return orbit, groups


def _schreier(generators, x0: int, n: int) -> set[Perm]:
    """Generators of the stabilizer of x0, read off a Schreier tree of its
    orbit.

    Breadth-first from x0: tinv[x] maps x to x0, and its inverse t[x] is
    kept until x is expanded.  An edge y = s x off the tree gives
    tinv[y] s t[x], which fixes x0; by Schreier's lemma these generate the
    stabilizer.  Returns the distinct non-identity ones."""
    e = identity_perm(n)
    steps = [(s, gatherer(s), gatherer(perm_inv(s))) for s in generators]
    tinv = {x0: e}
    found: set[Perm] = set()
    walk = deque([(x0, e)])
    while walk:
        x, t = walk.popleft()
        after_t = gatherer(t)   # p -> p t
        for s, after_s, after_s_inv in steps:
            if (y := s[x]) not in tinv:
                tinv[y] = after_s_inv(tinv[x])
                walk.append((y, after_t(s)))
            elif (h := after_t(after_s(tinv[y]))) != e:
                found.add(h)
    return found


def _pair_orbits(action: PermAction, unit_points):
    """Pair-orbit labels, one flat list indexed x*n + y, with each orbit's
    least pair and size; ids in row-major order of least pairs.

    The orbits through row x0, the least point of a point orbit O, are
    the orbits of the stabilizer of x0, numbered by least point.  The
    stabilizer's generators are the action's own when it has them, else
    Schreier's.  Every other row of O is written by a breadth-first walk
    from x0 that carries the rows it has yet to expand: (s x, y) and
    (x, s^-1 y) share an orbit, so row(s x) is row(x) read through s^-1."""
    n, generators, stabilizers = action.n_points, action.generators, action.stabilizers
    if stabilizers is not None and len(stabilizers) != len(unit_points):
        raise ValueError("stabilizers must list one tuple per point orbit")
    steps = [(s, gatherer(perm_inv(s))) for s in generators]
    membership = [0] * (n * n)
    reps: list[tuple[int, int]] = []
    sizes: list[int] = []
    for o, points in enumerate(unit_points):
        x0 = points[0]
        stabilizer = _schreier(generators, x0, n) if stabilizers is None else stabilizers[o]
        if any(s[x0] != x0 for s in stabilizer):
            raise ValueError(f"a stabilizer generator moves point {x0}")
        suborbit, suborbits = _point_orbits(n, stabilizer)
        row = [len(reps) + k for k in suborbit]
        reps += [(x0, sub[0]) for sub in suborbits]
        sizes += [len(points) * len(sub) for sub in suborbits]
        seen, walk = {x0}, deque([(x0, row)])
        while walk:
            x, row = walk.popleft()
            membership[x * n:(x + 1) * n] = row
            for s, after_s_inv in steps:
                if (y := s[x]) not in seen:
                    seen.add(y)
                    walk.append((y, after_s_inv(row)))
    return membership, reps, sizes


def orbit_atoms(action: PermAction) -> ConcreteRealization:
    """Enumerate point and pair orbits and assemble the hypergroupoid.

    Only the identity rows are counted here; the whole table is counted
    when the rows or values are first read."""
    n = action.n_points
    point_orbit, unit_points = _point_orbits(n, action.generators)
    membership, reps, sizes = _pair_orbits(action, unit_points)
    src = tuple(point_orbit[y] for (_, y) in reps)
    tgt = tuple(point_orbit[x] for (x, _) in reps)
    star = tuple(membership[y * n + x] for (x, y) in reps)
    unit_arrow = tuple(membership[pts[0] * (n + 1)] for pts in unit_points)
    # both counts rank the arrows by source alike
    by_source = source_order(src)
    identity_rows, identity_values = _pair_rows(
        membership, n, reps, by_source, sorted(unit_arrow))
    counted = []

    def table():
        # the whole table, rows and values, counted on the first call
        if not counted:
            counted.append(_pair_rows(membership, n, reps, by_source))
        return counted[0]

    H = Hypergroupoid(
        unit_names=tuple(f"u{k}" for k in range(len(unit_points))),
        arrow_names=tuple(f"a{g}" for g in range(len(reps))),
        src=src,
        tgt=tgt,
        star=star,
        unit_arrow=unit_arrow,
        build=lambda: table()[0],
        identity_rows=identity_rows,
    )
    return ConcreteRealization(
        action=action,
        hypergroupoid=H,
        point_orbit=tuple(point_orbit),
        unit_points=tuple(tuple(p) for p in unit_points),
        membership=membership,
        representative=tuple(reps),
        orbit_size=tuple(sizes),
        identity_values=identity_values,
        table=table,
    )


def _pair_rows(membership, n, reps, by_source, arrows=None):
    """Intersection numbers of the pair orbits, as the composition rows
    whose composite is among ``arrows``, given in increasing order, or
    all of them.

    For an arrow c with representative (x, y), the middle points t give
    the pairs (membership[x*n + t], membership[t*n + y]) = (b, a), and
    the number of t giving (b, a) is <c | b, a>, the intersection number
    p_{ba}^c of the coherent configuration (D. G. Higman, *Coherent
    configurations*, 1975).  Each arrow's pairs are counted by one
    ``Counter`` over the integer keys rank(b)*k + a, where b is ranked by
    (src[b], b), as ``by_source`` = ``source_order(src)`` ranks it, and its
    keys, counts and c extend three flat columns.  One stable sort by key
    then orders the rows by src[b], b, a and, as arrows are taken in
    increasing c, c.  Returns the rows (b, a, c), id columns held as
    ``column_codec(k)`` holds them, and the value column <c | b, a>."""
    k = len(reps)
    order, rank = by_source
    rows: dict[int, list[int]] = {}
    keys: list[int] = []
    cs: list[int] = []
    values: list[int] = []
    for c in range(k) if arrows is None else arrows:
        x, y = reps[c]
        row = rows.get(x)
        if row is None:
            row = rows[x] = [rank[b] * k for b in membership[x * n:(x + 1) * n]]
        counts = Counter(map(add, row, membership[y::n]))
        keys += counts
        values += counts.values()
        cs += repeat(c, len(counts))
    at = gatherer(sorted(range(len(keys)), key=keys.__getitem__))
    column = column_codec(k).column
    if 4 * len(keys) < k * k:
        # a few rows, such as the identity rows: each key is divided out
        ranks, a_ = zip(*map(divmod, at(keys), repeat(k))) if keys else ((), ())
        return (column(gatherer(ranks)(order)), column(a_), column(at(cs))), at(values)
    # the b and a of each key rank(b)*k + a, looked up in lists of all k*k
    at_key = gatherer(at(keys))
    b_of = list(chain.from_iterable(map(repeat, order, repeat(k))))
    a_of = list(range(k)) * k
    return (column(at_key(b_of)), column(at_key(a_of)), column(at(cs))), at(values)


# ---------------------------------------------------------------------------
# structure constants


def count_mu(real: ConcreteRealization, a: int, g: int, gp: int, verify: bool = False) -> int:
    """<a | g, g'>: pair count through the stored representative of a.

    With verify=True the count is repeated at another orbit point (the
    second in row-major order), which must agree (the count is a
    property of the orbit, not the pair); HyperqError is raised if it
    does not."""
    n, mem = real.n_points, real.membership

    def count(x, y):
        return Counter(zip(mem[x * n:(x + 1) * n], mem[y::n]))[g, gp]

    value = count(*real.representative[a])
    if verify and real.orbit_size[a] > 1:
        other = count(*divmod(mem.index(a, mem.index(a) + 1), n))
        if other != value:
            raise HyperqError(
                f"structure constant depends on representative: {value} vs {other}")
    return value


def weights(real: ConcreteRealization) -> WeightedHypergroupoid:
    """The realized table with the weights read off its identity rows.
    Its values are the realization's value column, not a copy, and are
    built only when read."""
    left, right = derived_weights(real.hypergroupoid, real.identity_values)
    return WeightedHypergroupoid(
        base=real.hypergroupoid, left=left, right=right,
        build=lambda: real.values, identity_values=real.identity_values)
