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
  HG3  x in y z  implies  z in y* x  and  y in x z*, decided on whole
       columns by looking up the keys of the rows (y*, x, z) and
       (x, z*, y)

The composition table is kept in one form, arrow-id columns, held as
``column_codec`` decides, with one row (b, a, c) per composite c of each
composable pair; a dict of composition sets is turned into rows once, by
``from_comp``.  A table may be given by a function that builds it: it is
then built and checked on first read, and until then only its identity
rows, whose composite is an identity arrow, are read; the header gives them.
The weights and the KMS check read no other row.  The law checks and
``to_quantale`` read the pair table, one composition set per composable
pair in row order, indexed by place; every other reader takes the
places of one pair's rows, found by key, which packs rank(b), a and c
into one int.

Subsets of arrows under pointwise composition form an atomic modular
quantale; ``to_quantale`` builds its atom table and ``from_quantale``
inverts the construction by resolving, for every atom, the unique unit
atoms absorbing it on each side (NotModular when resolution fails).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter, namedtuple
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, islice, repeat
from operator import attrgetter, gt, lt, or_, sub

from .checks import Check, Report, first_failure
from .errors import MalformedTable, NotModular
from .quantale import AtomicQuantale, gatherer

EMPTY: frozenset[int] = frozenset()

Rows = tuple[Sequence[int], Sequence[int], Sequence[int]]

# the places of rank(b), a and c among the four id fields of a key record
B_FIELD, A_FIELD, C_FIELD = (2, 1, 0) if sys.byteorder == "little" else (1, 2, 3)


class lazy:
    """A read-only attribute built by the decorated method on first access
    and then stored on the instance, where later reads find it.  Unlike
    ``functools.cached_property`` it takes no lock and stores through
    ``object.__setattr__``, so the instance keeps no materialized
    ``__dict__`` and its other attributes stay as fast to read."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        object.__setattr__(obj, self.name, value)
        return value


# How a table's id columns are held: ``width`` bytes an id, ``column(ids)``
# of type ``kind``, ``reader(col)(table(m))`` a per-arrow map m at each id
# of col (at width 2 a tuple), and ``plane(k)`` k zero ids to slice into
Codec = namedtuple("Codec", "width kind column table reader plane")
BYTES = Codec(1, bytes, bytes, lambda m: bytes(m).ljust(256, b"\0"), attrgetter("translate"),
              bytearray)
SHORTS = Codec(2, array, partial(array, "H"), tuple, gatherer, lambda k: array("H", bytes(2 * k)))


def column_codec(n_arrows: int) -> Codec:
    """The codec of a table on ``n_arrows`` arrows, the one place its id
    width is decided: ``bytes`` and ``bytes.translate`` up to 256 arrows,
    ``array('H')`` and ``itemgetter`` up to 65536; past that, refused."""
    if n_arrows > 65536:
        raise MalformedTable(f"a table holds at most 65536 arrows, not {n_arrows}")
    return BYTES if n_arrows <= 256 else SHORTS


def source_order(src: Sequence[int]) -> tuple[list[int], list[int]]:
    """(order, rank): the arrows in increasing (src(b), b), and the place
    of each arrow there."""
    order = sorted(range(len(src)), key=src.__getitem__)
    return order, sorted(range(len(src)), key=order.__getitem__)


def unpack(codec: Codec, keys: Sequence[int]) -> Rows:
    """The columns (rank(b), a, c) of row keys, held as ``codec`` holds
    them: the keys are laid out as ``Hypergroupoid.pack`` records, and
    each field is one strided slice."""
    records = codec.column(array("IQ"[codec.width - 1], keys).tobytes())
    return records[B_FIELD::4], records[A_FIELD::4], records[C_FIELD::4]


@dataclass(frozen=True, eq=False, init=False)
class Hypergroupoid:
    """Arrows between units with an involution, identity arrows and a
    composition table.

    The table is ``rows``: id columns (b, a, c) held by ``codec``, one row
    per composite c of each composable pair (b, a), in strictly increasing
    ``keys`` (``pack``), that is by (src(b), b, a, c).  Callers pass one of:

    - ``rows``, checked whole columns at a time (``from_comp`` builds
      them from a dict {(b, a): composition set});
    - a function ``build`` returning the rows.  The rows are then built
      on first read and checked there as given rows are, and their
      identity rows must be the ones the header gives.

    ``identity_rows`` are the columns (b, a, e) of the rows whose
    composite e is an identity arrow, in row order, and
    ``identity_index`` their places in ``rows``.  Under HG1 and HG3 they
    are one row (b, b*, e) per arrow b, e the identity of tgt(b): if e is
    in comp(b, a), then a is in b* e = {b*}, and b in e b gives e in
    b b*.  So a table given by ``build`` reads them off its header.  The
    weights and the KMS check read only these, so a table given by
    ``build`` that is read no further is never built.  ``pair_table``
    holds the composition set of each composable pair in row order, equal
    sets one frozenset, built on first access, and callers must not
    mutate it; ``pair`` finds the places of one pair's rows by key."""

    unit_names: tuple[str, ...]
    arrow_names: tuple[str, ...]
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    star: tuple[int, ...]
    unit_arrow: tuple[int, ...]

    def _built_rows(self) -> Rows:
        """The rows of ``build``, checked, with their identity rows."""
        rows, keys = self._checked(self._build())
        index, identity_rows = self._identities(rows)
        if identity_rows != self.identity_rows:
            raise MalformedTable(
                "composition rows must have one identity row (b, b*, e) per arrow b")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "identity_index", index)
        return rows

    def _header_identity_rows(self) -> Rows:
        """The rows (b, b*, e), e the identity of tgt(b), in ``by_source`` order."""
        column, unit_arrow, tgt = self.codec.column, self.unit_arrow, self.tgt
        b_ = column(self.by_source[0])
        return b_, column(self.through("star", b_)), column([unit_arrow[tgt[b]] for b in b_])

    rows: Rows = field(default=lazy(_built_rows), repr=False)
    identity_rows: Rows = field(default=lazy(_header_identity_rows), init=False, repr=False)

    def __init__(self, unit_names, arrow_names, src, tgt, star, unit_arrow,
                 rows: Rows | None = None, *,
                 build: Callable[[], Rows] | None = None):
        # explicit raises, not asserts: check_hg_axioms indexes the pair
        # table and aligns rows on composite typing, so it relies on these
        # under -O.
        # Attributes are set as a frozen dataclass's __init__ sets them,
        # which keeps them out of a materialized __dict__ and fast to read
        for name, value in (("unit_names", unit_names), ("arrow_names", arrow_names),
                            ("src", src), ("tgt", tgt), ("star", star),
                            ("unit_arrow", unit_arrow)):
            object.__setattr__(self, name, value)
        nu, na = len(unit_names), len(arrow_names)
        object.__setattr__(self, "codec", column_codec(na))
        if not len(src) == len(tgt) == len(star) == na:
            raise MalformedTable("src, tgt and star must have one entry per arrow")
        if len(unit_arrow) != nu:
            raise MalformedTable("unit_arrow must have one entry per unit")
        if not set(src).union(tgt) <= set(range(nu)):
            raise MalformedTable("src and tgt must be unit ids")
        for g in range(na):
            s = star[g]
            if star[s] != g:
                raise MalformedTable("star must be an involution")
            if src[s] != tgt[g] or tgt[s] != src[g]:
                raise MalformedTable(f"star of arrow {g} must swap its source and target")
        for e, i in enumerate(unit_arrow):
            if src[i] != e or tgt[i] != e or star[i] != i:
                raise MalformedTable(
                    f"identity arrow {i} of unit {e} must be a self-adjoint loop at {e}")
        if build is not None:
            object.__setattr__(self, "_build", build)
            return
        rows, keys = self._checked(rows)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "rows", rows)
        index, identity_rows = self._identities(rows)
        object.__setattr__(self, "identity_index", index)
        object.__setattr__(self, "identity_rows", identity_rows)

    def _held(self, rows: Rows) -> Rows | None:
        """The columns of ``rows`` held as ``codec`` holds them, or None
        if an id is negative or too wide for it.  A column of another type
        than ``kind``, tuple or list is read id by id: bytes(array("q",
        ...)) would copy its raw bytes."""
        column, whole = self.codec.column, (self.codec.kind, tuple, list)
        try:
            return tuple(column(col if type(col) in whole else iter(col)) for col in rows)
        except (ValueError, OverflowError):
            return None

    def _checked(self, rows: Rows) -> tuple[Rows, list[int]]:
        """The rows held as ``codec`` holds them, with their keys, if
        ``_rows_hold``; else MalformedTable naming the first fault, in row
        order, as the dict check does.  Rows out of order are the one
        fault a dict cannot have."""
        keys = None if (held := self._held(rows)) is None else self._rows_hold(held)
        if keys is None:
            sets: dict[tuple[int, int], set[int]] = {}
            for b, a, c in zip(*rows):
                sets.setdefault((b, a), set()).add(c)
            self._check_comp(sets)
            raise MalformedTable("composition rows must strictly increase by src(b), b, a, c")
        return held, keys

    def _identities(self, rows: Rows) -> tuple[list[int], Rows]:
        """The places of the rows whose composite is an identity, and those rows."""
        index = list(compress(range(len(rows[2])), self.through("unit", rows[2])))
        return index, tuple(map(self.codec.column, map(gatherer(index), rows)))

    def _rows_hold(self, rows: Rows) -> list[int] | None:
        """The keys of rows held as ``codec`` holds them, if they are arrow
        ids, each pair composable with each composite in hom(src a, tgt b),
        in strictly increasing key, with every composable pair among them;
        else None.  Whole columns at a time."""
        b_, a_, c_ = rows
        # an id past the arrows is deleted here at width 1, and refused by
        # itemgetter at width 2; columns of unequal lengths differ below
        if (self.codec.width == 1
                and (b_ + a_ + c_).translate(None, bytes(range(self.n_arrows)))):
            return None
        src, tgt = self.maps["src"], self.maps["tgt"]
        try:
            # one reader of each column, for both maps
            (src_b, tgt_b), (src_a, tgt_a), (src_c, tgt_c) = (
                (read(src), read(tgt)) for read in map(self.codec.reader, rows))
        except IndexError:
            return None
        if (src_b, src_c, tgt_c) != (tgt_a, src_a, tgt_b):
            return None
        keys = self.pack(b_, a_, c_).tolist()
        if not all(map(lt, keys, islice(keys, 1, None))):
            return None
        pairs = len(c_) - self._pair_starts(b_, a_).count(0)
        return keys if pairs == self._composable_pairs() else None

    def _check_comp(self, comp):
        """MalformedTable naming the first fault of a comp dict, entry by
        entry in its order, then the first missing composable pair."""
        na, src, tgt = self.n_arrows, self.src, self.tgt
        hom: dict[tuple[int, int], set[int]] = {}
        for g in range(na):
            hom.setdefault((src[g], tgt[g]), set()).add(g)
        untyped: set[int] = set()
        for (b, a), cs in comp.items():
            if not (0 <= b < na and 0 <= a < na):
                raise MalformedTable(f"comp key ({b},{a}) is not a pair of arrow ids")
            if src[b] != tgt[a]:
                raise MalformedTable(f"comp defined on non-composable pair ({b},{a})")
            typed = hom.get((src[a], tgt[b]), untyped)
            if not cs <= typed:
                c = next(c for c in cs if c not in typed)
                raise MalformedTable(
                    f"composite {c} of ({b},{a}) lands outside hom({src[a]},{tgt[b]})")
        # the keys are distinct composable pairs of arrow ids, so comp is
        # complete exactly when it has one key per composable pair
        if len(comp) != self._composable_pairs():
            for b in range(na):
                for a in range(na):
                    if self.composable(b, a) and (b, a) not in comp:
                        raise MalformedTable(f"missing composition set for ({b},{a})")

    def _composable_pairs(self) -> int:
        """The number of pairs (b, a) with src(b) = tgt(a), summed over b."""
        into = [0] * self.n_units
        for u in self.tgt:
            into[u] += 1
        return sum(map(into.__getitem__, self.src))

    @lazy
    def by_source(self) -> tuple[list[int], list[int]]:
        """``source_order(src)``, the one ranking of the arrows by source
        that the row keys and the pair table read."""
        return source_order(self.src)

    @lazy
    def maps(self) -> dict[str, Sequence[int]]:
        """The per-arrow maps src, tgt, star, rank (by (src(b), b)) and unit
        (1 at an identity arrow) by name, held as ``codec.table`` holds them."""
        table = self.codec.table
        unit = bytes(map(set(self.unit_arrow).__contains__, range(self.n_arrows)))
        return {"src": table(self.src), "tgt": table(self.tgt), "star": table(self.star),
                "rank": table(self.by_source[1]), "unit": table(unit)}

    def through(self, name: str, col: Sequence[int]) -> Sequence[int]:
        """The map ``name`` at each id of ``col``: ``bytes`` at width 1, a
        tuple at width 2."""
        return self.codec.reader(col)(self.maps[name])

    def pack(self, b_: Sequence[int], a_: Sequence[int], c_: Sequence[int]) -> memoryview:
        """The keys of the rows (b, a, c) of three id columns: rank(b), a
        and c fill the fields of one four-id record per row by strided
        slices, and each record is read as an int when read."""
        codec = self.codec
        records = codec.plane(4 * len(a_))
        records[B_FIELD::4] = codec.column(self.through("rank", b_))
        records[A_FIELD::4] = codec.column(a_)
        records[C_FIELD::4] = codec.column(c_)
        return memoryview(records).cast("B").cast("IQ"[codec.width - 1])

    def _pair_starts(self, b_: Sequence[int], a_: Sequence[int]) -> bytes:
        """One byte per row of columns b and a, 0 where the row's pair is
        the one before's: each column XOR itself a row down (big-endian, a
        column less its last row), ORed, the first row marked, and each
        row's first byte ORed into its last, the one read (w <= 2)."""
        w, n = self.codec.width, len(a_)
        changes = 1 << 8 * w * n >> 8 * w  # the first row, the top id, starts a pair
        for col in (b_, a_):
            changes |= int.from_bytes(col, "big") ^ int.from_bytes(col[:-1], "big")
        return (changes | changes >> 8 * w - 8).to_bytes(w * n, "big")[w - 1::w]

    @lazy
    def keys(self) -> list[int]:
        """The key of each row; the rows are checked in key order, and
        kept there.  Checking given or built rows stores their keys, so
        a first read here builds a table given by ``build``."""
        self.rows
        return vars(self)["keys"]

    @lazy
    def identity_index(self) -> list[int]:
        """The places of the identity rows in ``rows``.  They are stored
        with the rows however these are given, so a first read here
        builds a table given by ``build``."""
        self.rows
        return vars(self)["identity_index"]

    @lazy
    def pair_starts(self) -> list[int]:
        """The first row of each composable pair, in row order."""
        b_, a_, _ = self.rows
        return list(compress(range(len(b_)), self._pair_starts(b_, a_)))

    @lazy
    def pair_table(self) -> tuple[tuple[frozenset[int], ...], list[int], list[int]]:
        """(sets, block, pos): the composition set of each composable pair,
        in row order, equal sets one frozenset.  The pairs of one b are
        consecutive and in increasing a, one per a with tgt(a) = src(b),
        so pair (b, a) is sets[block[b] + pos[a]]: block[b] is the place
        of b's first pair and pos[a] the place of a among the arrows with
        a's target."""
        into = [0] * self.n_units
        pos = []
        for u in self.tgt:
            pos.append(into[u])
            into[u] += 1
        block = [0] * self.n_arrows
        k = 0
        for b in self.by_source[0]:
            block[b] = k
            k += into[self.src[b]]
        c_ = self.rows[2]
        single = [frozenset((c,)) for c in range(self.n_arrows)]
        # k is the number of pairs: with one row each, the pair starts
        # are not read
        if k == len(c_):
            return gatherer(c_)(single), block, pos
        # each pair first takes the singleton of its first row; only the
        # pairs of two or more rows are then read whole
        starts = self.pair_starts
        sets = list(gatherer(gatherer(starts)(c_))(single))
        ends = [*starts[1:], len(c_)]
        shared: dict[tuple[int, ...], frozenset[int]] = {}
        for i in compress(range(k), map(gt, map(sub, ends, starts), repeat(1))):
            cs = tuple(c_[starts[i]:ends[i]])
            sets[i] = shared.get(cs) or shared.setdefault(cs, frozenset(cs))
        return tuple(sets), block, pos

    @property
    def n_units(self) -> int:
        return len(self.unit_names)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_names)

    def composable(self, b: int, a: int) -> bool:
        return self.src[b] == self.tgt[a]

    def pair(self, b: int, a: int) -> range:
        """The places in ``rows`` of the rows of (b, a), one per composite,
        where its values sit too: empty for a non-composable pair, and
        IndexError for an id outside the arrows.  Their keys (rank(b), a,
        c), 0 <= c < n, are one run of the increasing ``keys``: two
        bisections find it."""
        n, shift, keys = self.n_arrows, 8 * self.codec.width, self.keys
        if not (0 <= b < n and 0 <= a < n):
            raise IndexError(f"({b},{a}) is not a pair of arrow ids")
        key = (self.by_source[1][b] << shift | a) << shift
        return range(bisect_left(keys, key), bisect_left(keys, key + n))

    def compose(self, b: int, a: int) -> frozenset[int]:
        """Composition set, empty for non-composable pairs."""
        places = self.pair(b, a)
        return frozenset(self.rows[2][places.start:places.stop])

    @lazy
    def simple_arrows(self) -> tuple[int, ...]:
        """The simple arrows (see ``is_simple``), in id order."""
        return tuple(g for g in range(self.n_arrows) if is_simple(self, g))

    @lazy
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
    """Structural equality on ids, ignoring display names.  With equal
    sources the rows are in one order and held alike, so equal tables
    have equal row columns."""
    return (H1.src == H2.src and H1.tgt == H2.tgt and H1.star == H2.star
            and H1.unit_arrow == H2.unit_arrow and H1.rows == H2.rows)


def from_comp(unit_names, arrow_names, src, tgt, star, unit_arrow,
              comp: Mapping[tuple[int, int], Collection[int]]) -> Hypergroupoid:
    """The hypergroupoid of a dict {(b, a): composition set}.  The dict
    is turned into rows once and checked as given rows are, so a fault
    is named in row order; an empty set, which rows cannot hold, is
    named here."""
    for (b, a), cs in comp.items():
        if not cs:
            raise MalformedTable(f"composition set of ({b},{a}) is empty")
    # a pair of no arrow ids is ordered anyhow: the row check names it
    pairs = sorted(comp, key=lambda p: (src[p[0]] if 0 <= p[0] < len(src) else -1, p))
    rows = tuple(zip(*[(b, a, c) for b, a in pairs for c in sorted(comp[b, a])]))
    return Hypergroupoid(unit_names, arrow_names, src, tgt, star, unit_arrow,
                         rows or ((), (), ()))


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
    sets, block, pos = H.pair_table
    src, tgt = H.src, H.tgt
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
            for cs in (sets[block[m] + pos[t]] if src[m] == tgt[t] else EMPTY,
                       sets[block[t] + pos[m]] if src[t] == tgt[m] else EMPTY):
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
                for cs in (sets[block[w] + pos[u]] if src[w] == tgt[u] else EMPTY,
                           sets[block[u] + pos[w]] if src[u] == tgt[w] else EMPTY):
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
    first failing tuple as its one failure.  ``checked`` counts what each
    law decides: HG1 the arrows, HG2 the composable triples, HG3 the
    composition rows.

    HG2 compares, for each composable (x, y), the row of (x y) z with the
    row of x (y z) over the z with tgt z = src y, and reports the first
    differing z (y, then x, then z ascending).  It is decided by Light's
    test: only the middle arrows y of ``_middles`` are scanned.  Every
    non-composable triple holds as the empty set on both sides, so the
    arrows y for which the law holds are closed under singleton
    composites, and every arrow is a singleton composite reached from
    middles smaller than itself.  The smallest failing y is therefore a
    middle, and the scan over the middles finds the same first triple
    as a scan over every y.  HG1 and HG2 read only the ``pair_table``,
    not ``to_quantale``, and HG2 finds its own middles, so it stays
    independent of the quantale check's Q4, which decides the same law
    on the atom table.

    HG3 is decided on whole columns: for each row (y, z, x), that is
    x in comp(y, z), the rows (y*, x, z) and (x, z*, y) must be keys of
    the table.  Only a failing table is searched for its first failing
    (x, y, z) in (y, z, x) order."""
    results = []
    n, src, tgt = H.n_arrows, H.src, H.tgt
    sets, block, pos = H.pair_table

    # HG1: the declared identity i of each unit e absorbs on both sides.
    # That includes uniqueness, as the printed note says: another loop j
    # at e absorbing on both sides would give {j} = comp(j, i) = {i}
    hg1_ce = next((
        (e, x) for e, i in enumerate(H.unit_arrow) for x in range(n)
        if tgt[x] == e and sets[block[i] + pos[x]] != frozenset((x,))
        or src[x] == e and sets[block[x] + pos[i]] != frozenset((x,))), None)
    results.append(first_failure("HG1", hg1_ce, "identity uniqueness included", n))

    # HG2: with z in into[src y], (x y) z is the OR of the rows after[c]
    # over c in x y, and x (y z) the OR of after[x] at the positions of y z
    into: list[list[int]] = [[] for _ in range(H.n_units)]
    for g in range(n):
        into[tgt[g]].append(g)
    # after[c][pos[z]] is the mask of c z, read off the pairs of c; one
    # int per distinct set
    mask = {cs: sum(1 << d for d in cs) for cs in set(sets)}
    masks = list(map(mask.__getitem__, sets))
    after = [masks[block[c]:block[c] + len(into[src[c]])] for c in range(n)]
    hg2_ce = None
    for y in _middles(H):
        zs = into[src[y]]
        # one gather for the first composite of each y z, then the others
        yz = [[pos[d] for d in cs] for cs in sets[block[y]:block[y] + len(zs)]]
        first = gatherer([ds[0] for ds in yz])
        rest = [(i, ds[1:]) for i, ds in enumerate(yz) if len(ds) > 1]
        y_place = pos[y]
        for x in range(n):
            if src[x] != tgt[y]:
                continue
            cs = iter(sets[block[x] + y_place])
            left = after[next(cs)]
            for c in cs:
                left = list(map(or_, left, after[c]))
            ax = after[x]
            right = list(first(ax))
            for i, ds in rest:
                for d in ds:
                    right[i] |= ax[d]
            if left != right:
                i = next(i for i, (l, r) in enumerate(zip(left, right)) if l != r)
                hg2_ce = (x, y, zs[i])
                break
        if hg2_ce:
            break
    # the composable triples (x, y, z): src x = tgt y and tgt z = src y
    by_src = Counter(src)
    triples = sum(by_src[tgt[y]] * len(into[src[y]]) for y in range(n))
    results.append(first_failure("HG2", hg2_ce, checked=triples))

    # HG3: x in yz implies z in y*x and y in xz*, that is, row (y, z, x)
    # implies rows (y*, x, z) and (x, z*, y), looked up by key
    y_, z_, x_ = H.rows
    keys = set(H.keys)
    via_y = H.pack(H.through("star", y_), x_, z_)
    via_z = H.pack(x_, H.through("star", z_), y_)
    hg3_ce = None
    if not (keys.issuperset(via_y) and keys.issuperset(via_z)):
        # the first failing row in (y, z, x) order, not in row order
        y, z, x = min((y, z, x) for y, z, x, k, l in zip(y_, z_, x_, via_y, via_z)
                      if k not in keys or l not in keys)
        hg3_ce = (x, y, z)
    results.append(first_failure("HG3", hg3_ce, checked=len(x_)))

    return Report(tuple(results))


# ---------------------------------------------------------------------------
# quantale round trip


def to_quantale(H: Hypergroupoid) -> AtomicQuantale:
    """Atom table on the arrows; non-composable products are empty.  Row
    b is b's window of the pair table, gathered at the places of the
    arrows into src(b), with the empty set past its end for the others."""
    n, src, tgt = H.n_arrows, H.src, H.tgt
    sets, block, pos = H.pair_table
    width = [tgt.count(u) for u in range(H.n_units)]
    gather = [gatherer([pos[a] if tgt[a] == u else width[u] for a in range(n)])
              for u in range(H.n_units)]
    tail = (EMPTY,)
    product = tuple(
        gather[src[b]](sets[block[b]:block[b] + width[src[b]]] + tail)
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
    return from_comp(tuple(Q.atom_names[e] for e in units), Q.atom_names, tuple(src),
                     tuple(tgt), Q.star, tuple(units), comp)


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


def _arrow_images(H1: Hypergroupoid, H2: Hypergroupoid, arrow_map) -> tuple[int, ...]:
    amap = tuple(arrow_map[g] for g in range(H1.n_arrows))
    if any(not 0 <= g < H2.n_arrows for g in amap):
        raise ValueError("arrow map sends an arrow outside the target")
    return amap


def check_morphism(
    H1: Hypergroupoid,
    H2: Hypergroupoid,
    unit_map: dict[int, int] | tuple[int, ...],
    arrow_map: dict[int, int] | tuple[int, ...],
) -> Report:
    """Check that the maps keep sources and targets ("typing", failures
    the arrows g), send identities to identities ("unit", the units e)
    and satisfy f(x y) a subset of f(x) f(y) on every composable pair
    ("comp", the pairs (b, a), walked only when the typing holds).  Star
    preservation, which follows for genuine hypergroupoids, does not
    decide the verdict: see ``preserves_star``."""
    umap = tuple(unit_map[e] for e in range(H1.n_units))
    if any(not 0 <= e < H2.n_units for e in umap):
        raise ValueError("unit map sends a unit outside the target")
    amap = _arrow_images(H1, H2, arrow_map)
    n = H1.n_arrows
    typing = tuple(g for g in range(n) if H2.src[amap[g]] != umap[H1.src[g]]
                   or H2.tgt[amap[g]] != umap[H1.tgt[g]])
    unit = tuple(e for e in range(H1.n_units)
                 if amap[H1.unit_arrow[e]] != H2.unit_arrow[umap[e]])
    comp, walked = [], 0
    if not typing:
        for b in range(n):
            for a in range(n):
                cs = H1.compose(b, a)
                if cs:
                    walked += 1
                    if not frozenset(amap[c] for c in cs) <= H2.compose(amap[b], amap[a]):
                        comp.append((b, a))
    return Report((Check("typing", not typing, n, typing),
                   Check("unit", not unit, H1.n_units, unit),
                   Check("comp", not comp, walked, tuple(comp))))


def preserves_star(H1: Hypergroupoid, H2: Hypergroupoid,
                   arrow_map: dict[int, int] | tuple[int, ...]) -> bool:
    """Whether the arrow map sends g* to f(g)* for every arrow g."""
    amap = _arrow_images(H1, H2, arrow_map)
    return all(amap[H1.star[g]] == H2.star[amap[g]] for g in range(H1.n_arrows))
