"""Finite atomic quantales presented by atom tables.

An element of the quantale is a subset of atoms (a ``frozenset`` of atom
ids); joins are unions, the order is inclusion.  The whole multiplicative
structure is determined by the atom table: a product of atoms is a set of
atoms, the product of two elements is the union of the atom products, so
bilinearity over joins holds by construction.  The involution acts
atomwise.

``check_axioms`` verifies the quantale laws Q1-Q9 exactly, at any size:
since products and the involution are determined atomwise, each law
holds for all elements iff it holds for all atoms (see its docstring),
so one pass over the atom pairs and triples decides it; associativity
needs only the triples whose middle atom is one of a few generators
(Light's test, see its docstring).  Among the laws is the modular law

    x & (y z)  <=  y ((y* x) & z)

A failing law reports its first failing atom tuple in lexicographic id
order.

``is_grothendieck`` decides whether every atom factors as u v* with u, v
simple (an atom u is simple when u u* is a single unit atom), and
``site`` enumerates the category of elements below the unit, with
hom(q, q') = { f | 1 & f* f = q and f f* <= q' }, from the sets of
pairwise compatible atoms alone (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, or_

from .checks import Report, first_failure
from .errors import BoundExceeded, MalformedTable

QElement = frozenset[int]

# site() refuses more objects or compatible atom sets than a table of 12
# atoms has subsets.
SITE_ELEMENT_BOUND = 1 << 12


@dataclass(frozen=True)
class AtomicQuantale:
    """Atom table of a finite atomic quantale.

    atom_names   display names, index = atom id
    product      product[i][j] = set of atom ids in (atom i)(atom j)
    star         involution on atom ids
    units        atom ids whose join is the multiplicative unit
    """

    atom_names: tuple[str, ...]
    product: tuple[tuple[frozenset[int], ...], ...]
    star: tuple[int, ...]
    units: frozenset[int]

    def __post_init__(self):
        n = len(self.atom_names)
        if len(self.product) != n or any(len(row) != n for row in self.product):
            raise MalformedTable("product must have one row and one column per atom")
        if len(self.star) != n:
            raise MalformedTable("star must have one entry per atom")
        if any(not 0 <= k < n for cell in dict.fromkeys(chain.from_iterable(self.product))
               for k in cell):
            raise MalformedTable("atom products must be sets of atom ids")
        if any(not 0 <= s < n or self.star[s] != i for i, s in enumerate(self.star)):
            raise MalformedTable("star must be an involution")
        if any(not 0 <= e < n for e in self.units):
            raise MalformedTable("units must be atom ids")
        if any(self.star[e] != e for e in self.units):
            raise MalformedTable("units must be self-adjoint")

    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)


def bottom(Q: AtomicQuantale) -> QElement:
    return frozenset()


def top(Q: AtomicQuantale) -> QElement:
    return frozenset(range(Q.n_atoms))


def unit_element(Q: AtomicQuantale) -> QElement:
    return frozenset(Q.units)


def q_mul(Q: AtomicQuantale, a: QElement, b: QElement) -> QElement:
    """Product of two elements, the union of pairwise atom products."""
    out: set[int] = set()
    for i in a:
        row = Q.product[i]
        for j in b:
            out |= row[j]
    return frozenset(out)


def q_star(Q: AtomicQuantale, a: QElement) -> QElement:
    return frozenset(Q.star[i] for i in a)


def gatherer(idx):
    """The function seq -> (seq[i] for i in idx) as a tuple, one C-level
    ``itemgetter`` call.  ``itemgetter`` returns a bare item for a single
    index and refuses none, so an ``idx`` that short takes a Python tuple."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple([seq[i] for i in idx])


# ---------------------------------------------------------------------------
# bitmask view


def mask_to_element(m: int) -> QElement:
    out = []
    i = 0
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return frozenset(out)


# ---------------------------------------------------------------------------
# axiom checking


def _mask(atoms) -> int:
    m = 0
    for i in atoms:
        m |= 1 << i
    return m


def _middles(product) -> list[int]:
    """Middle atoms for Light's associativity test, in id order.

    The atoms are walked in id order and each one not yet reached becomes
    a middle.  Reached are the middles and every atom w with t u = {w} or
    u t = {w} for a reached t and a middle u.  Each pair of a reached atom
    and a middle is multiplied once, when the later of the two arrives.
    Every atom is reached, and an atom that is not a middle is reached
    from middles smaller than itself."""
    n = len(product)
    reached = [False] * n
    order: list[int] = []
    middles: list[int] = []
    for m in range(n):
        if reached[m]:
            continue
        reached[m] = True
        middles.append(m)
        new = [m]
        for t in order:
            for cell in (product[m][t], product[t][m]):
                if len(cell) == 1:
                    (w,) = cell
                    if not reached[w]:
                        reached[w] = True
                        new.append(w)
        # new grows while it is walked: each newly reached atom meets
        # every middle
        for w in new:
            order.append(w)
            for u in middles:
                for cell in (product[w][u], product[u][w]):
                    if len(cell) == 1:
                        (v,) = cell
                        if not reached[v]:
                            reached[v] = True
                            new.append(v)
    return middles


def _first_associativity_failure(P, pid, cells, ys) -> tuple[int, int, int] | None:
    """First atom triple (x, y, z) with y in ``ys`` and (x y) z != x (y z).

    P[i][j] is the mask of atom product i j, pid[i][j] the index of that
    product in ``cells``, the list of distinct products; the rows of P
    are tuples."""
    n = len(P)
    # by_z[k][z] is (product k) z, as a mask
    by_z = []
    for cell in cells:
        acc = P[cell[0]] if cell else (0,) * n
        for a in cell[1:]:
            acc = tuple(map(or_, acc, P[a]))
        by_z.append(acc)
    # x_by[k] = x (product k) is first gathered at each cell's least atom,
    # the empty product at the 0 past the end of x's row; the cells of two
    # or more atoms then take the others
    firsts = gatherer([cell[0] if cell else n for cell in cells])
    more = [(k, cell[1:]) for k, cell in enumerate(cells) if len(cell) > 1]
    # x (y z) over z gathers x_by at the row of y
    rhs_of = [(y, gatherer(pid[y])) for y in ys]
    for x in range(n):
        Px = P[x]
        x_by = list(firsts(Px + (0,)))
        for k, rest in more:
            m = x_by[k]
            for b in rest:
                m |= Px[b]
            x_by[k] = m
        row = pid[x]
        for y, rhs_at in rhs_of:
            lhs = by_z[row[y]]
            rhs = rhs_at(x_by)
            if lhs != rhs:
                return x, y, next(z for z in range(n) if lhs[z] != rhs[z])
    return None


def check_axioms(Q: AtomicQuantale) -> Report:
    """Check the quantale laws Q1-Q9 exactly, at any size, on atoms.

    Elements are subsets of atoms and a product is the union of its atom
    products, so Q1, Q2, Q3 and Q5 hold by construction.  The left side
    of each of Q4, Q6, Q8 and Q9 preserves joins in every argument and
    the right side is monotone, so each holds for all elements iff it
    holds for all atoms; on atoms the modular law Q9 reads

        x in y z  implies  z in y* x.

    Q7 asks that star be an involution on atoms.  A failing law's
    ``failures`` hold one entry, its first failing atom tuple in
    lexicographic id order as singleton elements; each note says how
    many atom tuples were decided, and ``checked`` holds that count (0
    for the laws that hold by construction).

    Q4 is decided by Light's test: it scans (x y) z = x (y z) for every
    atom x, z, but only for the middle atoms y of ``_middles``.  The set
    of atoms y for which it holds is closed under joins and products, so
    it holds for an atom that is a singleton product of two such atoms,
    and every atom is reached from the middles that way.  The middles
    decide the verdict; a failing table is then rescanned over every y,
    unless every atom is a middle, for its first triple in (x, y, z)
    order.
    """
    n = Q.n_atoms
    star = Q.star
    # the distinct products in first-occurrence order, each masked once
    index = dict.fromkeys(chain.from_iterable(Q.product))
    cells = [sorted(cell) for cell in index]
    masks = [_mask(cell) for cell in cells]
    for k, cell in enumerate(index):
        index[cell] = k
    pid = [list(map(index.__getitem__, row)) for row in Q.product]
    P = [tuple(map(masks.__getitem__, row)) for row in pid]
    units = sorted(Q.units)

    def unit_law(x):
        left = right = 0
        for e in units:
            left |= P[e][x]
            right |= P[x][e]
        return left == right == 1 << x

    middles = _middles(Q.product)
    q4 = _first_associativity_failure(P, pid, cells, middles)
    if q4 is not None and len(middles) < n:
        q4 = _first_associativity_failure(P, pid, cells, range(n))
    star_mask = [_mask(star[a] for a in cell) for cell in cells]
    first = {
        "Q4": q4,
        "Q6": next(((x,) for x in range(n) if not unit_law(x)), None),
        "Q7": next(((x,) for x in range(n) if star[star[x]] != x), None),
        "Q8": next(((x, y) for x in range(n) for y in range(n)
                    if star_mask[pid[x][y]] != P[star[y]][star[x]]), None),
        "Q9": min(((x, y, z) for y in range(n) for z in range(n)
                   for x in Q.product[y][z] if not P[star[y]][x] >> z & 1),
                  default=None),
    }
    notes = {
        "Q1": "holds by construction: subsets ordered by inclusion",
        "Q2": "holds by construction: joins are unions",
        "Q3": "holds by construction: meets are intersections",
        "Q4": f"{n ** 3} atom triples",
        "Q5": "holds by construction: products are unions of atom products",
        "Q6": f"{n} atoms",
        "Q7": f"{n} atoms",
        "Q8": f"{n ** 2} atom pairs",
        "Q9": f"{n ** 3} atom triples",
    }
    # the instances each note counts; a law that holds by construction has none
    checked = {"Q4": n ** 3, "Q6": n, "Q7": n, "Q8": n ** 2, "Q9": n ** 3}
    results = []
    for name, note in notes.items():
        atoms = first.get(name)
        ce = None if atoms is None else tuple(frozenset((a,)) for a in atoms)
        results.append(first_failure(name, ce, note, checked.get(name, 0)))
    return Report(tuple(results))


# ---------------------------------------------------------------------------
# semi-simplicity on the quantale side


def simple_atoms(Q: AtomicQuantale) -> tuple[int, ...]:
    """Atoms u with u u* a single unit atom (graphs of partial maps that
    cover their target)."""
    out = []
    for u in range(Q.n_atoms):
        prod = Q.product[u][Q.star[u]]
        if len(prod) == 1 and next(iter(prod)) in Q.units:
            out.append(u)
    return tuple(out)


def is_grothendieck(Q: AtomicQuantale) -> tuple[bool, dict[int, tuple[int, int]]]:
    """Whether every atom factors as u v* with u, v simple.

    Returns (flag, witness); the witness maps each factorable atom to the
    first (u, v) in id order with (atom u)(atom v*) = {atom}.  The flag is
    true iff the witness covers every atom, which is the top-decomposition
    axiom for the element algebra.
    """
    simples = simple_atoms(Q)
    witness: dict[int, tuple[int, int]] = {}
    for u in simples:
        for v in simples:
            cell = Q.product[u][Q.star[v]]
            if len(cell) == 1:
                witness.setdefault(next(iter(cell)), (u, v))
    return len(witness) == Q.n_atoms, witness


# ---------------------------------------------------------------------------
# the site of elements below the unit


@dataclass(frozen=True)
class SiteDescription:
    """Objects are the subsets of the unit atoms; hom(q, q') collects the
    elements f with 1 & f*f = q and f f* <= q'.  Composition is the
    quantale product and the identity of q is q itself."""

    quantale: AtomicQuantale
    objects: tuple[QElement, ...]
    homs: dict[tuple[QElement, QElement], tuple[QElement, ...]]

    def hom(self, q: QElement, q2: QElement) -> tuple[QElement, ...]:
        return self.homs[(q, q2)]

    def compose(self, f: QElement, g: QElement) -> QElement:
        """Composite of g: q -> q' followed by f: q' -> q''."""
        return q_mul(self.quantale, f, g)

    def identity(self, q: QElement) -> QElement:
        return q

    def is_covering(self, q: QElement, family) -> bool:
        """Whether the join of f f* over the family equals q."""
        acc: set[int] = set()
        for f in family:
            acc |= q_mul(self.quantale, f, q_star(self.quantale, f))
        return frozenset(acc) == q


def site(Q: AtomicQuantale) -> SiteDescription:
    """Enumerate the site of Q.

    Every f in a hom set has f f* <= 1, and f f* is the union of the
    atom products a b* over a, b in f, so f is a set of pairwise
    compatible atoms: a b* and b a* lie below the unit, a = b included.
    Only these sets are visited, grown one atom at a time in increasing
    mask order.  A table with more than ``SITE_ELEMENT_BOUND`` objects
    (subsets of the units) or compatible sets is refused."""
    units = sorted(Q.units)
    if 1 << len(units) > SITE_ELEMENT_BOUND:
        raise BoundExceeded(
            f"site enumeration gated at {SITE_ELEMENT_BOUND} objects, "
            f"table of {len(units)} units has more")
    unit = unit_element(Q)
    objects = []
    for m in range(1 << len(units)):
        objects.append(frozenset(units[i] for i in range(len(units)) if m >> i & 1))
    product, star = Q.product, Q.star
    found = [0]
    for a in range(Q.n_atoms):
        if product[a][star[a]] <= unit:
            # the atoms below a compatible with a
            adj = _mask(b for b in range(a)
                        if product[a][star[b]] <= unit and product[b][star[a]] <= unit)
            found += [m | 1 << a for m in found if m & adj == m]
        if len(found) > SITE_ELEMENT_BOUND:
            raise BoundExceeded(
                f"site enumeration gated at {SITE_ELEMENT_BOUND} compatible atom sets, "
                f"table of {Q.n_atoms} atoms has more")
    # one pass over the compatible sets, bucketed by (domain, image bound)
    buckets: dict[QElement, list[tuple[QElement, QElement]]] = {}
    for m in found:
        f = mask_to_element(m)
        dom = unit & q_mul(Q, q_star(Q, f), f)
        img = q_mul(Q, f, q_star(Q, f))
        buckets.setdefault(dom, []).append((f, img))
    homs: dict[tuple[QElement, QElement], tuple[QElement, ...]] = {}
    for q in objects:
        cands = buckets.get(q, [])
        for q2 in objects:
            homs[(q, q2)] = tuple(f for f, img in cands if img <= q2)
    return SiteDescription(quantale=Q, objects=tuple(objects), homs=homs)
