"""Realizing hypergroupoids from finite permutation group actions.

A finite group G acting on a set X induces an action on ordered pairs;
the pair orbits are the atoms of the quantale of G-invariant relations
on X and the arrows of a hypergroupoid.  Pairs are read as (output,
input): the source of an arrow is the point orbit of the second
coordinate, the target that of the first, so that composition of orbit
relations

    comp(b, a) = { orbit(x, y) | exists z with (x, z) in b, (z, y) in a }

matches "apply a, then b".  Orbits are discovered scanning pairs in
row-major order, so each arrow's stored representative is its
lexicographically least pair.

Structure constants are pair counts

    <a | g, g'> = #{ t | (x, t) in g and (t, y) in g' }    (x, y) in a

independent of the representative: the intersection numbers of the
coherent configuration formed by the pair orbits (D. G. Higman,
*Coherent configurations*, 1975).  They are read off as one integer
histogram: scanning t along the row of x and the column of y of the
orbit-label matrix yields every pair (g, g') whose composite meets a,
with its count, for all arrows a at once.  Left and right weights of an
arrow are its column and row counts:

    |g|_l = <e | g*, g>   (e = source identity),
    |g|_r = <e'| g, g*>   (e' = target identity).

``weights`` collects the full table and returns it with the left/right
vectors as a weighted hypergroupoid ready for the convolution algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .algebra import WeightedHypergroupoid, derived_weights
from .errors import HyperqError, OrderBoundExceeded
from .hypergroupoid import Hypergroupoid

Perm = tuple[int, ...]

GROUP_ORDER_BOUND = 10_000


# ---------------------------------------------------------------------------
# permutations


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composite p after q: (p q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


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


def enumerate_group(
    generators,
    degree: int | None = None,
    order_bound: int = GROUP_ORDER_BOUND,
) -> list[Perm]:
    """All elements of the generated group, breadth-first from the identity
    multiplying by generators in input order.  The returned order is the
    deterministic BFS discovery order."""
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("need a degree when there are no generators")
        degree = len(gens[0])
    for g in gens:
        _check_perm(g, degree)
    e = identity_perm(degree)
    elements = [e]
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = perm_mul(x, s)
                if y not in seen:
                    if len(elements) >= order_bound:
                        raise OrderBoundExceeded(
                            f"group order exceeds bound {order_bound}")
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


# ---------------------------------------------------------------------------
# actions and coset spaces


@dataclass(frozen=True)
class PermAction:
    """A finite set {0..n_points-1} with a list of generating permutations."""

    n_points: int
    generators: tuple[Perm, ...]

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


def coset_partition(elements: list[Perm], k_gens) -> tuple[list[list[int]], list[int]]:
    """Left cosets gK of the listed group, as a partition of element indexes.

    Classes are merged along right multiplication by the generators of K,
    then ordered by least member.  Returns (classes, membership)."""
    index = {g: i for i, g in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, g in enumerate(elements):
        for k in k_gens:
            j = index[perm_mul(g, tuple(k))]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    buckets: dict[int, list[int]] = {}
    for i in range(len(elements)):
        buckets.setdefault(find(i), []).append(i)
    classes = [sorted(v) for _, v in sorted(buckets.items())]
    membership = [0] * len(elements)
    for c, members in enumerate(classes):
        for i in members:
            membership[i] = c
    return classes, membership


def coset_space(spec: CosetSpec, k: int, order_bound: int = GROUP_ORDER_BOUND) -> PermAction:
    """The action of the spec's generators on left cosets of subgroup k."""
    name, k_gens = spec.subgroups[k]
    elements = enumerate_group(spec.group_generators, spec.degree, order_bound)
    index = {g: i for i, g in enumerate(elements)}
    for g in k_gens:
        if tuple(g) not in index:
            raise ValueError(f"subgroup {name!r} generator outside the group")
    classes, membership = coset_partition(elements, k_gens)
    gens = []
    for s in spec.group_generators:
        # left multiplication s(gK) = (sg)K
        gens.append(tuple(membership[index[perm_mul(s, elements[c[0]])]] for c in classes))
    return PermAction(n_points=len(classes), generators=tuple(gens))


def disjoint_union(actions) -> PermAction:
    """Block union of actions of the same group presentation (the i-th
    generators are identified across the summands)."""
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


def coset_union_action(spec: CosetSpec, order_bound: int = GROUP_ORDER_BOUND) -> PermAction:
    """Disjoint union of the coset actions of every listed subgroup."""
    return disjoint_union(
        coset_space(spec, k, order_bound) for k in range(len(spec.subgroups)))


# ---------------------------------------------------------------------------
# pair orbits


@dataclass(frozen=True, eq=False)
class ConcreteRealization:
    """Pair-orbit data of an action, with the assembled hypergroupoid.

    membership[x, y] is the arrow id of the orbit through (x, y);
    representative[g] is the least pair of orbit g in lexicographic
    order; products caches, for every composable pair (b, a), the
    composite orbits with their pair counts."""

    action: PermAction
    hypergroupoid: Hypergroupoid
    point_orbit: tuple[int, ...]
    unit_points: tuple[tuple[int, ...], ...]
    membership: np.ndarray = field(repr=False)
    representative: tuple[tuple[int, int], ...]
    orbit_size: tuple[int, ...]
    products: dict[tuple[int, int], tuple[tuple[int, int], ...]] = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.action.n_points

    @property
    def n_arrows(self) -> int:
        return len(self.representative)

    def matrix(self, g: int) -> np.ndarray:
        """0/1 incidence matrix of arrow g."""
        return self.membership == g


def _point_orbits(action: PermAction) -> tuple[list[int], list[list[int]]]:
    n = action.n_points
    orbit = [-1] * n
    groups: list[list[int]] = []
    for start in range(n):
        if orbit[start] >= 0:
            continue
        oid = len(groups)
        orbit[start] = oid
        members = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for s in action.generators:
                    y = s[x]
                    if orbit[y] < 0:
                        orbit[y] = oid
                        members.append(y)
                        nxt.append(y)
            frontier = nxt
        groups.append(sorted(members))
    return orbit, groups


def orbit_atoms(action: PermAction) -> ConcreteRealization:
    """Enumerate point and pair orbits and assemble the hypergroupoid."""
    n = action.n_points
    point_orbit, unit_points = _point_orbits(action)

    membership = np.full((n, n), -1, dtype=np.int64)
    reps: list[tuple[int, int]] = []
    sizes: list[int] = []
    for x0 in range(n):
        for y0 in range(n):
            if membership[x0, y0] >= 0:
                continue
            gid = len(reps)
            reps.append((x0, y0))
            membership[x0, y0] = gid
            count = 1
            frontier = [(x0, y0)]
            while frontier:
                nxt = []
                for (x, y) in frontier:
                    for s in action.generators:
                        p = (s[x], s[y])
                        if membership[p] < 0:
                            membership[p] = gid
                            count += 1
                            nxt.append(p)
                frontier = nxt
            sizes.append(count)

    n_arrows = len(reps)
    src = tuple(point_orbit[y] for (_, y) in reps)
    tgt = tuple(point_orbit[x] for (x, _) in reps)
    star = tuple(int(membership[y, x]) for (x, y) in reps)
    unit_arrow = tuple(int(membership[pts[0], pts[0]]) for pts in unit_points)

    products = _pair_products(membership, reps, src, n_arrows)
    comp = {key: frozenset(c for c, _ in val) for key, val in products.items()}

    H = Hypergroupoid(
        unit_names=tuple(f"u{k}" for k in range(len(unit_points))),
        arrow_names=tuple(f"a{g}" for g in range(n_arrows)),
        src=src,
        tgt=tgt,
        star=star,
        unit_arrow=unit_arrow,
        comp=comp,
    )
    return ConcreteRealization(
        action=action,
        hypergroupoid=H,
        point_orbit=tuple(point_orbit),
        unit_points=tuple(tuple(p) for p in unit_points),
        membership=membership,
        representative=tuple(reps),
        orbit_size=tuple(sizes),
        products=products,
    )


def _pair_products(membership, reps, src, n_arrows):
    """Intersection numbers of the pair orbits, as one histogram.

    For an arrow c with representative (x, y), the middle points t give
    the pairs (membership[x, t], membership[t, y]) = (b, a), and the
    number of t giving (b, a) is <c | b, a>, the intersection number
    p_{ba}^c of the coherent configuration (D. G. Higman, *Coherent
    configurations*, 1975).  All arrows are counted at once by one
    ``np.unique`` over the integer key (rank of b, a, c), where b is
    ranked by (src[b], b); ``np.ravel_multi_index`` raises rather than
    wraps, so keys are exact for fewer than 2**21 arrows.  Keys come out
    sorted, so products lists pairs by src[b], then b, then a, each
    with its composites in increasing c."""
    k = n_arrows
    order = np.argsort(src, kind="stable")
    rank = np.argsort(order)
    xs = [x for x, _ in reps]
    ys = [y for _, y in reps]
    # row c of each block is the middle-point scan of arrow c
    keys, counts = np.unique(
        np.ravel_multi_index(
            (rank[membership[xs, :]], membership[:, ys].T, np.arange(k)[:, None]),
            (k, k, k)),
        return_counts=True)
    rb, a, c = np.unravel_index(keys, (k, k, k))
    rows = zip(order[rb].tolist(), a.tolist(), c.tolist(), counts.tolist())
    return {pair: tuple((ci, v) for _, _, ci, v in group)
            for pair, group in groupby(rows, key=lambda r: r[:2])}


# ---------------------------------------------------------------------------
# structure constants


def count_mu(real: ConcreteRealization, a: int, g: int, gp: int, verify: bool = False) -> int:
    """<a | g, g'>: pair count through the stored representative of a.

    With verify=True the count is repeated at another orbit point, which
    must agree (the count is a property of the orbit, not the pair);
    HyperqError is raised if it does not."""
    x, y = real.representative[a]
    row = real.membership[x, :] == g
    col = real.membership[:, y] == gp
    value = int(np.count_nonzero(row & col))
    if verify and real.orbit_size[a] > 1:
        pts = np.argwhere(real.membership == a)
        x2, y2 = map(int, pts[1])
        row2 = real.membership[x2, :] == g
        col2 = real.membership[:, y2] == gp
        other = int(np.count_nonzero(row2 & col2))
        if other != value:
            raise HyperqError(
                f"structure constant depends on representative: {value} vs {other}")
    return value


def weights(real: ConcreteRealization) -> WeightedHypergroupoid:
    """The full structure constant table with left and right weights."""
    mu = {(c, b, a): v
          for (b, a), pairs in real.products.items() for c, v in pairs}
    left, right = derived_weights(real.hypergroupoid, mu)
    return WeightedHypergroupoid(
        base=real.hypergroupoid, mu=mu, left=left, right=right)
