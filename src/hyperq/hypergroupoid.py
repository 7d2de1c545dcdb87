"""Finite hypergroupoids: multivalued composition over a set of units.

An arrow g has a source and a target unit; a composable pair (b, a) with
src(b) = tgt(a) has an inhabited composition set comp(b, a), read as
"a then b" so that comp(b, a) lands in hom(src(a), tgt(b)).  Every unit
carries an identity arrow, and the involution swaps sources and targets.

The defining laws checked by ``check_hg_axioms``:

  HG1  each unit has a unique two-sided identity arrow
  HG2  (x y) z = x (y z) as sets, over all composable triples, decided
       one row of z per composable pair (x, y) with y a middle arrow of
       Light's test
  HG3  x in y z  implies  z in y* x  and  y in x z*

Subsets of arrows under pointwise composition form an atomic modular
quantale; ``to_quantale`` builds its atom table and ``from_quantale``
inverts the construction by resolving, for every atom, the unique unit
atoms absorbing it on each side (NotModular when resolution fails).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import or_

from .checks import Report, first_failure
from .errors import MalformedTable, NotModular
from .quantale import AtomicQuantale

EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True, eq=False)
class Hypergroupoid:
    unit_names: tuple[str, ...]
    arrow_names: tuple[str, ...]
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    star: tuple[int, ...]
    unit_arrow: tuple[int, ...]
    # (b, a) -> composition set, present exactly for composable pairs
    comp: dict[tuple[int, int], frozenset[int]] = field(repr=False)

    def __post_init__(self):
        # explicit raises, not asserts: check_hg_axioms indexes comp and
        # aligns rows on composite typing, so it relies on these under -O
        nu, na = len(self.unit_names), len(self.arrow_names)
        src, tgt, star = self.src, self.tgt, self.star
        if not len(src) == len(tgt) == len(star) == na:
            raise MalformedTable("src, tgt and star must have one entry per arrow")
        if len(self.unit_arrow) != nu:
            raise MalformedTable("unit_arrow must have one entry per unit")
        hom: dict[tuple[int, int], set[int]] = {}
        for g in range(na):
            s = star[g]
            if star[s] != g:
                raise MalformedTable("star must be an involution")
            if src[s] != tgt[g] or tgt[s] != src[g]:
                raise MalformedTable(f"star of arrow {g} must swap its source and target")
            hom.setdefault((src[g], tgt[g]), set()).add(g)
        for e, i in enumerate(self.unit_arrow):
            if src[i] != e or tgt[i] != e or star[i] != i:
                raise MalformedTable(
                    f"identity arrow {i} of unit {e} must be a self-adjoint loop at {e}")
        untyped: set[int] = set()
        for (b, a), cs in self.comp.items():
            if not (0 <= b < na and 0 <= a < na):
                raise MalformedTable(f"comp key ({b},{a}) is not a pair of arrow ids")
            if src[b] != tgt[a]:
                raise MalformedTable(f"comp defined on non-composable pair ({b},{a})")
            if not cs:
                raise MalformedTable(f"composition set of ({b},{a}) is empty")
            typed = hom.get((src[a], tgt[b]), untyped)
            if not cs <= typed:
                c = next(c for c in cs if c not in typed)
                raise MalformedTable(
                    f"composite {c} of ({b},{a}) lands outside hom({src[a]},{tgt[b]})")
        # the keys are distinct composable pairs of arrow ids, so comp is
        # complete exactly when it has one key per composable pair
        by_src, by_tgt = Counter(src), Counter(tgt)
        if len(self.comp) != sum(k * by_tgt[u] for u, k in by_src.items()):
            for b in range(na):
                for a in range(na):
                    if self.composable(b, a) and (b, a) not in self.comp:
                        raise MalformedTable(f"missing composition set for ({b},{a})")

    @property
    def n_units(self) -> int:
        return len(self.unit_names)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_names)

    def composable(self, b: int, a: int) -> bool:
        return self.src[b] == self.tgt[a]

    def compose(self, b: int, a: int) -> frozenset[int]:
        """Composition set, empty for non-composable pairs."""
        return self.comp.get((b, a), EMPTY)

    @cached_property
    def simple_arrows(self) -> tuple[int, ...]:
        """The simple arrows (see ``is_simple``), in id order."""
        return tuple(g for g in range(self.n_arrows) if is_simple(self, g))

    @cached_property
    def semisimple_factorization(self) -> tuple[bool, dict[int, tuple[int, int]]]:
        """(flag, witness) of ``is_semisimple``; callers must not mutate
        the shared witness."""
        simples = self.simple_arrows
        witness: dict[int, tuple[int, int]] = {}
        for u in simples:
            for v in simples:
                composite = self.compose(u, self.star[v])
                if len(composite) == 1:
                    witness.setdefault(next(iter(composite)), (u, v))
        return len(witness) == self.n_arrows, witness


def same_structure(H1: Hypergroupoid, H2: Hypergroupoid) -> bool:
    """Structural equality on ids, ignoring display names."""
    return (H1.src == H2.src and H1.tgt == H2.tgt and H1.star == H2.star
            and H1.unit_arrow == H2.unit_arrow and H1.comp == H2.comp)


# ---------------------------------------------------------------------------
# axiom checking


def _middles(H: Hypergroupoid) -> list[int]:
    """Middle arrows for Light's associativity test, in id order.

    The arrows are walked in id order and each one not yet reached
    becomes a middle.  Reached are the middles and every arrow w with
    comp(t, u) = {w} or comp(u, t) = {w} for a reached t and a middle u.
    Each pair of a reached arrow and a middle is composed once, when the
    later of the two arrives.  Every arrow is reached, and an arrow that
    is not a middle is reached from middles smaller than itself."""
    get = H.comp.get
    reached = [False] * H.n_arrows
    order: list[int] = []
    middles: list[int] = []
    for m in range(H.n_arrows):
        if reached[m]:
            continue
        reached[m] = True
        middles.append(m)
        new = [m]
        for t in order:
            for cs in (get((m, t), EMPTY), get((t, m), EMPTY)):
                if len(cs) == 1:
                    (w,) = cs
                    if not reached[w]:
                        reached[w] = True
                        new.append(w)
        # new grows while it is walked: each newly reached arrow meets
        # every middle
        for w in new:
            order.append(w)
            for u in middles:
                for cs in (get((w, u), EMPTY), get((u, w), EMPTY)):
                    if len(cs) == 1:
                        (v,) = cs
                        if not reached[v]:
                            reached[v] = True
                            new.append(v)
    return middles


def check_hg_axioms(H: Hypergroupoid) -> Report:
    """Check HG1 (unique identities), HG2 (associativity) and HG3
    (the involution exchange law) over all composable tuples.  Each law
    is one ``Check`` of the returned ``Report``; a failing law keeps its
    first failing tuple as its one failure.

    HG2 compares, for each composable (x, y), the row of (x y) z with the
    row of x (y z) over the z with tgt z = src y, and reports the first
    differing z (y, then x, then z ascending).  It is decided by Light's
    test: only the middle arrows y of ``_middles`` are scanned.  Every
    non-composable triple holds as the empty set on both sides, so the
    arrows y for which the law holds are closed under singleton
    composites, and every arrow is a singleton composite reached from
    middles smaller than itself.  The smallest failing y is therefore a
    middle, and the scan over the middles finds the same first triple
    as a scan over every y.  HG2 reads only ``comp``, not
    ``to_quantale``, and finds its own middles, so it stays independent
    of the quantale check's Q4, which decides the same law on the atom
    table.

    HG3 walks the composable pairs (y, z) and each x in comp(y, z) in
    ascending order and reports the first failing (x, y, z)."""
    results = []

    # HG1: the declared identity i of each unit e absorbs on both sides.
    # That includes uniqueness, as the printed note says: another loop j
    # at e absorbing on both sides would give {j} = comp(j, i) = {i}
    hg1_ce = next((
        (e, x) for e, i in enumerate(H.unit_arrow) for x in range(H.n_arrows)
        if H.tgt[x] == e and H.compose(i, x) != frozenset((x,))
        or H.src[x] == e and H.compose(x, i) != frozenset((x,))), None)
    results.append(first_failure("HG1", hg1_ce, note="identity uniqueness included"))

    # HG2: with z in into[src y], (x y) z is the OR of the rows after[c]
    # over c in x y, and x (y z) the OR of after[x] at the positions of y z
    into: list[list[int]] = [[] for _ in range(H.n_units)]
    pos = []
    for g in range(H.n_arrows):
        pos.append(len(into[H.tgt[g]]))
        into[H.tgt[g]].append(g)
    # after[c][pos[z]] is the mask of c z; one int per distinct set
    mask = {cs: sum(1 << d for d in cs) for cs in set(H.comp.values())}
    after = [[mask[H.comp[c, z]] for z in into[H.src[c]]] for c in range(H.n_arrows)]
    hg2_ce = None
    for y in _middles(H):
        zs = into[H.src[y]]
        # one gather for the first composite of each y z, then the others
        yz = [[pos[d] for d in H.comp[y, z]] for z in zs]
        first = [ds[0] for ds in yz]
        rest = [(i, ds[1:]) for i, ds in enumerate(yz) if len(ds) > 1]
        for x in range(H.n_arrows):
            if H.src[x] != H.tgt[y]:
                continue
            cs = iter(H.comp[x, y])
            left = after[next(cs)]
            for c in cs:
                left = list(map(or_, left, after[c]))
            ax = after[x]
            right = list(map(ax.__getitem__, first))
            for i, ds in rest:
                for d in ds:
                    right[i] |= ax[d]
            if left != right:
                i = next(i for i, (l, r) in enumerate(zip(left, right)) if l != r)
                hg2_ce = (x, y, zs[i])
                break
        if hg2_ce:
            break
    results.append(first_failure("HG2", hg2_ce))

    # HG3: x in yz implies z in y*x and y in xz*
    hg3_ce = None
    comp, get, star = H.comp, H.comp.get, H.star
    for y, z in sorted(comp):
        xs = comp[y, z]
        for x in sorted(xs) if len(xs) > 1 else xs:
            if z not in get((star[y], x), EMPTY) or y not in get((x, star[z]), EMPTY):
                hg3_ce = (x, y, z)
                break
        if hg3_ce:
            break
    results.append(first_failure("HG3", hg3_ce))

    return Report(tuple(results))


# ---------------------------------------------------------------------------
# quantale round trip


def to_quantale(H: Hypergroupoid) -> AtomicQuantale:
    """Atom table on the arrows; non-composable products are empty."""
    n = H.n_arrows
    get = H.comp.get
    product = tuple(
        tuple(map(get, zip(repeat(b), range(n)), repeat(EMPTY, n)))
        for b in range(n))
    return AtomicQuantale(
        atom_names=H.arrow_names,
        product=product,
        star=H.star,
        units=frozenset(H.unit_arrow),
    )


def from_quantale(Q: AtomicQuantale) -> Hypergroupoid:
    """Resolve each atom's source and target unit from the atom table.

    The source of g is the unique unit atom e with g in (g e), the target
    the unique e' with g in (e' g).  Raises NotModular when resolution is
    not unique or a product crosses non-matching units.
    """
    n = Q.n_atoms
    units = sorted(Q.units)
    unit_index = {e: k for k, e in enumerate(units)}
    src = []
    tgt = []
    for g in range(n):
        right = [e for e in units if g in Q.product[g][e]]
        left = [e for e in units if g in Q.product[e][g]]
        if len(right) != 1 or len(left) != 1:
            raise NotModular(
                f"atom {Q.atom_names[g]} has {len(right)} source and {len(left)} "
                f"target unit resolutions")
        src.append(unit_index[right[0]])
        tgt.append(unit_index[left[0]])
    comp: dict[tuple[int, int], frozenset[int]] = {}
    for b in range(n):
        for a in range(n):
            prod = Q.product[b][a]
            if src[b] == tgt[a]:
                if not prod:
                    raise NotModular(
                        f"composable pair ({Q.atom_names[b]},{Q.atom_names[a]}) "
                        f"has empty product")
                comp[(b, a)] = prod
            elif prod:
                raise NotModular(
                    f"non-composable pair ({Q.atom_names[b]},{Q.atom_names[a]}) "
                    f"has nonempty product")
    return Hypergroupoid(
        unit_names=tuple(Q.atom_names[e] for e in units),
        arrow_names=Q.atom_names,
        src=tuple(src),
        tgt=tuple(tgt),
        star=Q.star,
        unit_arrow=tuple(units),
        comp=comp,
    )


# ---------------------------------------------------------------------------
# simplicity


def is_simple(H: Hypergroupoid, g: int) -> bool:
    """Whether g g* is exactly the identity of tgt(g)."""
    return H.compose(g, H.star[g]) == frozenset((H.unit_arrow[H.tgt[g]],))


def is_semisimple(H: Hypergroupoid) -> tuple[bool, dict[int, tuple[int, int]]]:
    """Whether every arrow is u v* for simple u, v, meaning the singleton
    composition set comp(u, star(v)) == {arrow}.  Scans simple arrows in
    id order; the witness maps each factorable arrow to its first
    factorization."""
    ok, witness = H.semisimple_factorization
    return ok, dict(witness)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class MorphismReport:
    typing_ok: bool
    unit_ok: bool
    comp_ok: bool
    star_ok: bool
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        # star preservation is a consequence for genuine hypergroupoids;
        # it is reported but does not decide the verdict
        return self.typing_ok and self.unit_ok and self.comp_ok

    def __bool__(self) -> bool:
        return self.ok


def check_morphism(
    H1: Hypergroupoid,
    H2: Hypergroupoid,
    unit_map: dict[int, int] | tuple[int, ...],
    arrow_map: dict[int, int] | tuple[int, ...],
) -> MorphismReport:
    """Check that the maps send identities to identities and satisfy
    f(x y) a subset of f(x) f(y) on every composable pair.  Star
    preservation is checked and reported separately."""
    umap = tuple(unit_map[e] for e in range(H1.n_units))
    amap = tuple(arrow_map[g] for g in range(H1.n_arrows))
    if any(not 0 <= e < H2.n_units for e in umap):
        raise ValueError("unit map sends a unit outside the target")
    if any(not 0 <= g < H2.n_arrows for g in amap):
        raise ValueError("arrow map sends an arrow outside the target")

    failures = []
    typing_ok = True
    for g in range(H1.n_arrows):
        if H2.src[amap[g]] != umap[H1.src[g]] or H2.tgt[amap[g]] != umap[H1.tgt[g]]:
            typing_ok = False
            failures.append(("typing", g))
    unit_ok = True
    for e in range(H1.n_units):
        if amap[H1.unit_arrow[e]] != H2.unit_arrow[umap[e]]:
            unit_ok = False
            failures.append(("unit", e))
    comp_ok = True
    if typing_ok:
        for (b, a), cs in sorted(H1.comp.items()):
            image = frozenset(amap[c] for c in cs)
            if not image <= H2.compose(amap[b], amap[a]):
                comp_ok = False
                failures.append(("comp", b, a))
    star_ok = all(amap[H1.star[g]] == H2.star[amap[g]] for g in range(H1.n_arrows))
    if not star_ok:
        failures.append(("star",))
    return MorphismReport(
        typing_ok=typing_ok, unit_ok=unit_ok, comp_ok=comp_ok, star_ok=star_ok,
        failures=tuple(failures))
