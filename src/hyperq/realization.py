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
G's breadth-first listing, found without listing G: from K, a layer at
a time, by each generator s in turn and then the last layer's points in
order.  Both orders are the shortlex order of each coset's least word
s_1...s_k, first letter most significant, and the walk first reaches a
coset C by its least first letter s, from s^-1 C.  A coset is named by
its least element, read down a stabilizer chain of K.  Of K's list and
the points, each at most |G|, neither may pass the order bound.  The pair
orbits meeting row x0, the least point of a point orbit O, are the
orbits of the stabilizer G_x0 on the points.  On a coset space G/K the
least point is the coset K itself, so G_x0 = K and its generators are
K's, read off the input; an action given by its generators alone has
them read by Schreier's lemma off a breadth-first Schreier tree of O
(C. C. Sims, *Computational methods in the study of permutation
groups*, 1970).  That row is labelled once, by least point; in either
case one breadth-first walk of O from x0 writes each other row, row(s x)
being row(x) read through s^-1, so no element is held per point of O
and a coset input needs no Schreier search.  So arrow ids follow
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
every pair (g, g') whose composite meets a, with its count.  Each count
is keyed as ``Hypergroupoid.pack`` keys the row (g, g', a), so one sort
orders the rows and ``unpack`` reads their id columns back; the counts
form a value column beside them, the one form of the table.  Left and
right weights of an arrow are its column and row counts:

    |g|_l = <e | g*, g>   (e = source identity),
    |g|_r = <e'| g, g*>   (e' = target identity).

They, chi, sigma_t and the KMS check read only the rows whose composite
is an identity arrow.  So ``orbit_atoms`` counts those rows alone, at
the representatives (x0, x0) of the identity arrows: n middle points per
unit rather than per arrow.  The whole table is counted when its rows or
values are first read, and checked there; its identity rows and values
must be the ones counted first.  ``weights`` returns the left/right
vectors as a weighted hypergroupoid ready for the convolution algebra,
the one holder of the value column, which it counts only when read.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import accumulate
from operator import add

from .algebra import WeightedHypergroupoid, derived_weights
from .errors import HyperqError, OrderBoundExceeded
from .hypergroupoid import Hypergroupoid, Rows, column_codec, gatherer, source_order, unpack

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


@cache
def _codec(degree: int):
    """(seq, table, compose): an element p held as seq(p), its images p(0),
    p(1), ... as bytes up to degree 256 and as a tuple above, with
    compose(seq(p), table(seq(q))) == seq(q p), one ``bytes.translate``."""
    if degree <= 256:
        pad = bytes(range(degree, 256))
        return bytes, (lambda y: y + pad), bytes.translate
    return tuple, (lambda y: y.__getitem__), (lambda y, t: tuple(map(t, y)))


def _bfs(generators, degree: int, order_bound: int, codec) -> dict:
    """The generated group, each element g held as seq(g^-1) and mapped to
    its place breadth-first from the identity by generators in order: the
    step g -> g s is then s^-1 g^-1, one compose."""
    seq, table, compose = codec
    steps = [table(seq(perm_inv(s))) for s in generators]
    return _close({seq(range(degree)): 0}, steps, compose, order_bound)


def _close(index: dict, steps, compose, order_bound: int = GROUP_ORDER_BOUND) -> dict:
    """Close ``index``, a group mapping its elements to their places,
    under the steps' elements, placing each new one last as it is met."""
    frontier = list(index)
    for x in frontier:
        for t in steps:
            if (y := compose(x, t)) not in index:
                index[y] = len(index)
                if len(index) > order_bound:
                    raise OrderBoundExceeded(f"group order exceeds bound {order_bound}")
                frontier.append(y)
    return index


def enumerate_group(
    generators,
    degree: int | None = None,
    order_bound: int = GROUP_ORDER_BOUND,
) -> list[Perm]:
    """All elements of the generated group, breadth-first from the identity
    multiplying by generators in input order.  The returned order is the
    deterministic BFS discovery order, in which ``coset_union_action``
    orders the cosets by least member without listing the group."""
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("need a degree when there are no generators")
        degree = len(gens[0])
    for g in gens:
        _check_perm(g, degree)
    return list(map(perm_inv, _bfs(gens, degree, order_bound, _codec(degree))))


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
    """Disjoint union of the coset actions of every listed subgroup.  The
    least point of G/K is K, and its stabilizer is K: the action carries
    the images of K's generators as that orbit's stabilizer."""
    codec = seq, table, compose = _codec(spec.degree)
    steps = [table(seq(s)) for s in spec.group_generators]
    spaces = [_coset_walk(spec, name, k_gens, codec, steps) for name, k_gens in spec.subgroups]
    offsets = list(accumulate((len(reps) for reps, *_ in spaces), initial=0))

    def image(h) -> Perm:
        # left multiplication h(gK) = (hg)K, on every point
        t = table(seq(h))
        return tuple([offset + index[least(compose(r, t))]
                      for offset, (reps, index, least, _) in zip(offsets, spaces) for r in reps])

    action = PermAction(offsets[-1], tuple(
        tuple([offset + j for offset, (*_, images) in zip(offsets, spaces) for j in images[s]])
        for s in range(len(steps))))
    object.__setattr__(action, "stabilizers",
                       tuple(tuple(map(image, k_gens)) for _, k_gens in spec.subgroups))
    return action


def _coset_walk(spec: CosetSpec, name: str, k_gens, codec, steps):
    """The left cosets of K, walked from K by the steps' tables, each named
    by its least element, G never listed.  The Schreier elements t_j^-1 s t_i
    off the walk's tree generate K's meet with G, which must be K.  Returns
    each point's representative t_i, the point of each name, the name of
    yK and each step's image of the points."""
    seq, table, compose = codec
    elements = list(_bfs(k_gens, spec.degree, GROUP_ORDER_BOUND, codec))
    # a chain of K, listed as inverses (the same set): b is the least point a level moves
    chain, level, b = [], elements, 0
    while len(level) > 1:
        while all(k[b] == b for k in level):
            b += 1
        transversal = {k[b]: k for k in level}
        chain.append((seq(list(transversal)), list(transversal.values())))
        level = [k for k in level if k[b] == b]

    def least(y):
        # y u, u taking b where y is least; positions below b are fixed
        for orbit, transversal in chain:
            t = table(y)
            image = compose(orbit, t)
            y = compose(transversal[image.index(min(image))], t)
        return y

    reps, n, layer = [e := seq(range(spec.degree))], 1, range(1)
    index, images, meet, meet_steps = {e: 0}, [[] for _ in steps], {e: 0}, []
    while layer:
        for t, image in zip(steps, images):
            for i in layer:
                y = compose(reps[i], t)
                j = index.setdefault(least(y), n)
                if j == n:
                    reps.append(y)
                    n += 1
                elif len(meet) < len(elements) and (   # an edge off the walk's tree
                        h := compose(y, table(seq(perm_inv(reps[j]))))) not in meet:
                    meet_steps.append(table(h))
                    _close(meet, meet_steps, compose)
                image.append(j)
            if n > GROUP_ORDER_BOUND:   # at most |G|
                raise OrderBoundExceeded(f"group order exceeds bound {GROUP_ORDER_BOUND}")
        layer = range(layer.stop, n)
    if len(meet) < len(elements):
        raise ValueError(f"subgroup {name!r} generator outside the group")
    return reps, index, least, images


# ---------------------------------------------------------------------------
# pair orbits


@dataclass(frozen=True, eq=False)
class ConcreteRealization:
    """Pair-orbit data of an action, with the assembled hypergroupoid.

    membership[x * n_points + y] is the arrow id of the orbit through
    (x, y); representative[g] is the least pair of orbit g in
    lexicographic order; identity_values[i] is <e | b, a> for row
    i = (b, a, e) of the hypergroupoid's identity rows.  ``table``
    counts the whole table once: the hypergroupoid's rows (b, a, c) and
    the values <c | b, a> beside them, which ``weights`` holds."""

    action: PermAction
    hypergroupoid: Hypergroupoid
    point_orbit: tuple[int, ...]
    unit_points: tuple[tuple[int, ...], ...]
    membership: list[int] = field(repr=False)
    representative: tuple[tuple[int, int], ...]
    orbit_size: tuple[int, ...]
    identity_values: tuple[int, ...] = field(repr=False)
    table: Callable[[], tuple[Rows, tuple[int, ...]]] = field(repr=False)

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
    # the whole table, rows and values, counted on the first call
    table = cache(lambda: _pair_rows(membership, n, reps, by_source))

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
    ``Counter`` over rank(b) << s | a, s the bits of an id, where b is
    ranked by (src[b], b), as ``by_source`` = ``source_order(src)`` ranks
    it.  Shifted once more and ORed with c, each counted pair is the row
    key that ``Hypergroupoid.pack`` gives (b, a, c).  One sort of the keys
    orders the rows by src[b], b, a and c, and ``unpack`` reads rank(b),
    a and c back off them.  Returns the rows (b, a, c), id columns held
    as ``column_codec(k)`` holds them, and the value column <c | b, a>."""
    order, rank = by_source
    codec = column_codec(len(reps))
    shift = 8 * codec.width
    rows: dict[int, list[int]] = {}
    keys: list[int] = []
    values: list[int] = []
    for c in range(len(reps)) if arrows is None else arrows:
        x, y = reps[c]
        row = rows.get(x)
        if row is None:
            row = rows[x] = [rank[b] << shift for b in membership[x * n:(x + 1) * n]]
        counts = Counter(map(add, row, membership[y::n]))
        keys += [pair << shift | c for pair in counts]
        values += counts.values()
    at = gatherer(sorted(range(len(keys)), key=keys.__getitem__))
    ranks, a_, c_ = unpack(codec, at(keys))
    return (codec.column(codec.reader(ranks)(codec.table(order))), a_, c_), at(values)


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
    Its values are the value column that ``real.table`` counts, not a
    copy, and are counted and checked only when read."""
    left, right = derived_weights(real.hypergroupoid, real.identity_values)
    return WeightedHypergroupoid(
        base=real.hypergroupoid, left=left, right=right,
        build=lambda: real.table()[1], identity_values=real.identity_values)
