"""Convolution algebra of a weighted hypergroupoid.

Basis elements [g] are indexed by arrows; the product is

    [g] [g'] = sum over a in comp(g, g') of <a | g, g'> [a]

with integer structure constants (extended naturals in general), read
off the rows of the pair (g, g') and the values at the same places
(``Hypergroupoid.pair``).  An algebra element is a dict
{arrow id: coefficient} with no explicit zeros; coefficients are exact
Fractions or ints, and complex is allowed where the one-parameter
evolution needs it.

The weight identities tie the table together (e, e' the identities of
src(g), tgt(g), all in extended natural arithmetic):

    (1)  <a|g,g'> |a|_l  =  <g'|g*,a> |g'|_l
    (2)  <a|g,g'> |a|_r  =  <g|a,g'*> |g|_r
    (3)  |g|_l |g'|_l    =  sum_a <a|g,g'> |a|_l

``validate_weights`` checks them together with the left/right symmetry
laws.  On a locally finite table the modular ratio chi(g) = |g|_l/|g|_r
defines the involution [g]* = chi(g) [g*], the normalized idempotents
e_g = [g]/|g|_l, the evolution sigma_t([g]) = chi(g)^{it} [g], and the
weight eta reading off coefficients at the identity arrows; eta
satisfies the inverse temperature 1 boundary condition

    eta([q] sigma_i([q'])) = eta([q'] [q])

checked exactly by ``kms_check`` for all arrow pairs, evaluating only the
pairs that the mu entries at identity arrows can make fail.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import itemgetter, mul as times, sub

from .checks import Check, Report
from .errors import InfiniteCoefficient, MalformedTable, NotSemisimple, ZeroWeight
from .extnat import INF, ExtNat, check_extnat, is_finite
from .hypergroupoid import Hypergroupoid, gatherer, is_simple, lazy

Element = dict[int, object]


@dataclass(frozen=True, eq=False, init=False)
class WeightedHypergroupoid:
    """A hypergroupoid with its structure constant table.

    ``values[i]`` is <c | b, a> for row i = (b, a, c) of ``base.rows``;
    left[g] and right[g] are the declared weights (normally the derived
    values <e|g*,g> and <e'|g,g*>, but imported tables may disagree,
    which validate_weights reports).  Callers pass one of:

    - ``values`` (``mu_values`` builds them from a dict
      {(c, b, a): <c | b, a>});
    - a function ``build`` returning the values, with the
      ``identity_values`` beside it.  The values are then built on first
      read, and must take the given values at the identity rows.

    ``identity_values`` are the values at ``base.identity_rows``, all
    that the weights and the KMS check read.  ``mu`` is a read-only dict
    view in row order, built on first access, which the package itself
    never reads; callers must not mutate it."""

    base: Hypergroupoid

    def _built_values(self) -> Sequence[ExtNat]:
        values = _checked_values(self.base, self._build())
        if gatherer(self.base.identity_index)(values) != self.identity_values:
            raise MalformedTable("mu values disagree with the identity values counted first")
        return values

    values: Sequence[ExtNat] = field(default=lazy(_built_values), repr=False)
    left: tuple[ExtNat, ...]
    right: tuple[ExtNat, ...]
    identity_values: tuple[ExtNat, ...] = field(init=False, repr=False)

    def __init__(self, base: Hypergroupoid, *,
                 left: tuple[ExtNat, ...], right: tuple[ExtNat, ...],
                 values: Sequence[ExtNat] | None = None,
                 build: Callable[[], Sequence[ExtNat]] | None = None,
                 identity_values: Sequence[ExtNat] | None = None):
        for name, value in (("base", base), ("left", left), ("right", right)):
            object.__setattr__(self, name, value)
        if not len(left) == len(right) == base.n_arrows:
            raise MalformedTable("left and right must have one weight per arrow")
        _check_values(left + right)
        if build is not None:
            identity_values = tuple(identity_values)
            if len(identity_values) != len(base.identity_rows[2]):
                raise MalformedTable("mu must have one value per identity row")
            _check_values(identity_values)
            object.__setattr__(self, "_build", build)
            object.__setattr__(self, "identity_values", identity_values)
            return
        object.__setattr__(self, "values", _checked_values(base, values))
        object.__setattr__(self, "identity_values", gatherer(base.identity_index)(values))

    @lazy
    def mu(self) -> dict[tuple[int, int, int], ExtNat]:
        """(c, b, a) -> <c | b, a>, one entry per composite of each
        composable pair."""
        b_, a_, c_ = self.base.rows
        return dict(zip(zip(c_, b_, a_), self.values))


def _check_values(values: Sequence[ExtNat]):
    """Raise as ``check_extnat`` does at the first value that is no
    extended natural."""
    # plain non-negative ints pass at once; bools and the rest are left
    # to check_extnat
    if not (set(map(type, values)) <= {int} and min(values, default=0) >= 0):
        for v in values:
            check_extnat(v)


def _checked_values(H: Hypergroupoid, values: Sequence[ExtNat]) -> Sequence[ExtNat]:
    """A value column of H, one extended natural per row; MalformedTable
    if there are too few or too many."""
    if len(values) != len(H.rows[2]):
        raise MalformedTable("mu must have one value per composition row")
    _check_values(values)
    return values


def mu_values(H: Hypergroupoid, mu: Mapping[tuple[int, int, int], ExtNat]) -> list[ExtNat]:
    """The value column of a mu dict on the rows of H, each row (b, a, c)
    reading its entry (c, b, a).  MalformedTable names the first entry,
    in dict order, outside the composition table, then the first row, in
    row order, with no entry.  The values are checked by the
    ``WeightedHypergroupoid`` that takes them."""
    b_, a_, c_ = H.rows
    values = list(map(mu.get, zip(c_, b_, a_)))
    # every row found its own entry, so the entries are exactly the rows
    # when as many were found as there are entries
    missing = values.count(None)
    if len(values) - missing != len(mu):
        rows = set(zip(c_, b_, a_))
        a, g, gp = next(key for key in mu if key not in rows)
        raise MalformedTable(f"mu entry ({a},{g},{gp}) outside the composition table")
    if missing:
        i = values.index(None)
        raise MalformedTable(f"mu missing entry ({c_[i]},{b_[i]},{a_[i]})")
    return values


def derived_weights(H: Hypergroupoid, identity_values: Sequence[ExtNat]) -> tuple[tuple[ExtNat, ...], tuple[ExtNat, ...]]:
    """Left/right weight vectors read off the identity rows of H and
    their values.  |g|_l = <e|g*,g> and |g*|_r = <e|g*,g**> are one row,
    (g*, g, e) with e the identity of src(g); both are 0 where it is
    missing."""
    b_, a_, _ = H.identity_rows
    star = H.star
    left = [0] * H.n_arrows
    right = [0] * H.n_arrows
    for b, a, v in zip(b_, a_, identity_values):
        # the one identity that a composite of (a*, a) can be is that of src(a)
        if b == star[a]:
            left[a] = right[b] = v
    return tuple(left), tuple(right)


# ---------------------------------------------------------------------------
# weight identities


_FAILURE_CAP = 20


def _law(name: str, keys, lhs, rhs) -> Check:
    """The check of one law whose instances ``keys`` have the sides
    ``lhs`` and ``rhs``, compared as two whole lists.  Only a mismatch
    reads ``keys`` and walks the sides, for the first 20 failures as
    (key, lhs, rhs) in increasing key."""
    lhs, rhs = list(lhs), list(rhs)
    failures = ()
    if lhs != rhs:
        failures = tuple(sorted(
            ((key, l, r) for key, l, r in zip(keys, lhs, rhs) if l != r),
            key=itemgetter(0))[:_FAILURE_CAP])
    return Check(name, not failures, len(lhs), failures)


def validate_weights(W: WeightedHypergroupoid) -> Report:
    """Check the symmetry laws and the three weight identities, exactly,
    in extended natural arithmetic.  Each law's ``Check`` counts the
    instances it compared and keeps the first 20 failures as
    (key, lhs, rhs).  The mu laws have the mu keys (a, g, g') as
    instances, murel-3 the composable pairs.  The sides are read off the
    rows and compared in row order; the mu entry a law pairs with a row
    is found by its row key, and only failures are sorted by key."""
    H, values, left, right = W.base, W.values, W.left, W.right
    arrows = range(H.n_arrows)
    dleft, dright = derived_weights(H, W.identity_values)
    g_, gp_, a_ = H.rows
    get = dict(zip(H.keys, values)).get
    star_g, star_gp = H.through("star", g_), H.through("star", gp_)

    def entries(b_, a_, c_):
        """<c | b, a> at the rows (b, a, c) of three id columns, 0 off the
        table."""
        return map(get, H.pack(b_, a_, c_), repeat(0))

    # the murel-1 terms v |a|_l, summed per (g, g') by murel-3.  A column's
    # gatherer holds its ids, at width 2 one int object each: none is kept
    terms = list(map(times, values, gatherer(a_)(left)))
    starts = H.pair_starts
    ends = [*starts[1:], len(terms)]
    at_pair = gatherer(starts)
    # each pair's total is the difference of a running sum at its ends,
    # unless a term is infinite: that cannot be taken back out
    run = [0, *accumulate(terms)]
    if run[-1] is INF:
        totals = map(sum, map(terms.__getitem__, map(slice, starts, ends)))
    else:
        totals = map(sub, gatherer(ends)(run), gatherer(starts)(run))
    return Report((
        _law("left-def", arrows, left, dleft),
        _law("right-def", arrows, right, dright),
        _law("star-left", arrows, gatherer(H.star)(left), right),
        _law("star-mu", zip(a_, g_, gp_), values,
             entries(star_gp, star_g, H.through("star", a_))),
        _law("murel-1", zip(a_, g_, gp_), terms,
             map(times, entries(star_g, a_, gp_), gatherer(gp_)(left))),
        _law("murel-2", zip(a_, g_, gp_), map(times, values, gatherer(a_)(right)),
             map(times, entries(a_, star_gp, g_), gatherer(g_)(right))),
        _law("murel-3", zip(map(g_.__getitem__, starts), map(gp_.__getitem__, starts)),
             map(times, gatherer(at_pair(g_))(left), gatherer(at_pair(gp_))(left)), totals),
    ))


def is_locally_finite(W: WeightedHypergroupoid) -> bool:
    """All weights finite; composition sets are finite by construction."""
    return all(is_finite(v) for v in W.left) and all(is_finite(v) for v in W.right)


# ---------------------------------------------------------------------------
# the convolution product


def _bilinear(W: WeightedHypergroupoid, u: Element, v: Element, finite: bool) -> Element:
    """The sum of u(g) v(g') <a|g,g'> [a] over the basis products [g] [g'],
    zero coefficients skipped and zero sums dropped; with ``finite`` an
    infinite <a|g,g'> raises InfiniteCoefficient."""
    H, values = W.base, W.values
    c_ = H.rows[2]
    acc: dict[int, object] = {}
    for g, cg in u.items():
        if cg == 0:
            continue
        for gp, cp in v.items():
            if cp == 0:
                continue
            c = cg * cp
            for i in H.pair(g, gp):
                a, m = c_[i], values[i]
                if finite and m is INF:
                    raise InfiniteCoefficient(
                        f"<{a}|{g},{gp}> is infinite; coefficient would diverge")
                acc[a] = acc.get(a, 0) + c * m
    return {a: c for a, c in acc.items() if c != 0}


def mul(W: WeightedHypergroupoid, u: Element, v: Element) -> Element:
    """Convolution product, bilinear over the basis products."""
    return _bilinear(W, u, v, finite=True)


def chi(W: WeightedHypergroupoid, g: int) -> Fraction:
    """Modular ratio |g|_l / |g|_r."""
    l, r = W.left[g], W.right[g]
    name = W.base.arrow_names[g]
    if not (is_finite(l) and is_finite(r)):
        raise InfiniteCoefficient(f"arrow {name} has an infinite weight")
    if r == 0:
        raise ZeroWeight(f"arrow {name} has zero right weight")
    if l == 0:
        raise ZeroWeight(f"arrow {name} has zero left weight")
    return Fraction(l, r)


def star(W: WeightedHypergroupoid, u: Element) -> Element:
    """Antilinear-free exact involution [g]* = chi(g) [g*]."""
    out: dict[int, object] = {}
    for g, c in u.items():
        if c == 0:
            continue
        out[W.base.star[g]] = c * chi(W, g)
    return {g: c for g, c in out.items() if c != 0}


def e_basis(W: WeightedHypergroupoid, g: int) -> Element:
    """Normalized basis element e_g = [g] / |g|_l, satisfying
    (e_g)* = e_{g*}."""
    l = W.left[g]
    name = W.base.arrow_names[g]
    if not is_finite(l):
        raise InfiniteCoefficient(f"arrow {name} has infinite left weight")
    if l == 0:
        raise ZeroWeight(f"arrow {name} has zero left weight")
    return {g: Fraction(1, l)}


def sigma_imag(W: WeightedHypergroupoid, u: Element) -> Element:
    """Evolution at imaginary time i: [g] -> chi(g)^{-1} [g], exact."""
    return {g: c / chi(W, g) for g, c in u.items() if c != 0}


def sigma(W: WeightedHypergroupoid, t: float, u: Element) -> Element:
    """One-parameter evolution sigma_t([g]) = chi(g)^{it} [g]."""
    out: dict[int, object] = {}
    for g, c in u.items():
        if c == 0:
            continue
        factor = cmath.exp(1j * t * math.log(chi(W, g)))
        out[g] = complex(c) * factor
    return out


def eta(W: WeightedHypergroupoid, u: Element):
    """Sum of the coefficients at identity arrows."""
    return sum((u.get(i, 0) for i in W.base.unit_arrow), start=0)


@dataclass(frozen=True)
class KmsReport:
    checked: int
    failures: tuple = ()
    # arrows whose chi is undefined (an infinite or zero weight); the
    # pairs (q, q') with q' among them cannot be evaluated
    chi_undefined: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures and not self.chi_undefined


def kms_check(W: WeightedHypergroupoid) -> KmsReport:
    """Exact boundary condition eta([q] sigma_i([q'])) = eta([q'] [q])
    over all basis pairs.

    Only identity arrows contribute to eta, so with m(x, y) the sum of
    <e|x,y> over the identity arrows e, the left side is
    chi(q')^{-1} m(q, q') and the right side m(q', q).  Both vanish
    unless m(q, q') or m(q', q) is non-zero, so one pass over the
    identity rows of the table finds every pair that can fail, and only
    those pairs are evaluated, in (q, q') order; every other pair holds
    as 0 = 0.  A pair is decided in integers, m(q, q') |q'|_r against
    m(q', q) |q'|_l.  ``checked`` counts all pairs decided.  Pairs whose
    q' has no chi are skipped and not counted; those arrows are listed in
    ``chi_undefined``.  An infinite identity entry at a pair that is
    evaluated raises InfiniteCoefficient naming the first such pair."""
    H, left, right = W.base, W.left, W.right
    # chi(g) = |g|_l / |g|_r is defined where both weights are finite and non-zero
    defined = [is_finite(l) and is_finite(r) and l != 0 and r != 0 for l, r in zip(left, right)]

    # comp(x, y) holds at most one identity arrow, so m(x, y) is one row
    x_, y_, _ = H.identity_rows
    mass = {(x, y): v for x, y, v in zip(x_, y_, W.identity_values) if v != 0}
    candidates = sorted({pair for x, y in mass for pair in ((x, y), (y, x))
                         if defined[pair[1]]})
    # every candidate is evaluated, past the failure cap too, so an
    # infinite entry raises at the same pair as it would in a full scan
    names = H.arrow_names
    failures = []
    for q, qp in candidates:
        m, mp = mass.get((q, qp), 0), mass.get((qp, q), 0)
        if m is INF or mp is INF:
            x, y = (q, qp) if m is INF else (qp, q)
            raise InfiniteCoefficient(
                f"kms pair ({names[q]},{names[qp]}) cannot be evaluated: "
                f"the identity mu entry of ({names[x]},{names[y]}) is infinite")
        if m * right[qp] != mp * left[qp] and len(failures) < _FAILURE_CAP:
            failures.append((q, qp, Fraction(m * right[qp], left[qp]), Fraction(mp)))
    undefined = tuple(g for g, ok in enumerate(defined) if not ok)
    return KmsReport(checked=H.n_arrows * sum(defined), failures=tuple(failures),
                     chi_undefined=undefined)


def convolve_ext(W: WeightedHypergroupoid, f: dict[int, ExtNat], h: dict[int, ExtNat]) -> dict[int, ExtNat]:
    """Convolution of extended natural valued functions,
    (f * h)(a) = sum over (g, g') of f(g) h(g') <a|g,g'>, with the
    convention 0 * INF = 0."""
    for v in list(f.values()) + list(h.values()):
        check_extnat(v)
    return _bilinear(W, f, h, finite=False)


# ---------------------------------------------------------------------------
# semi-simple structure


def mu_semisimple(H: Hypergroupoid, a: int, g: int, gp: int) -> ExtNat:
    """Structure constant recovered from the composition table alone:

        <a|g,g'> = sup over simple (x, y) with a = x y* of |g* x  &  g' y|

    Defined for semi-simple hypergroupoids (NotSemisimple otherwise).
    The supremum over a finite table is a plain int."""
    if not H.semisimple_factorization[0]:
        raise NotSemisimple("some arrow has no simple factorization")
    simples = H.simple_arrows
    star = H.star
    best = 0
    target = frozenset((a,))
    for x in simples:
        for y in simples:
            if H.compose(x, star[y]) != target:
                continue
            size = len(H.compose(star[g], x) & H.compose(gp, y))
            if size > best:
                best = size
    return best


def left_finite_witness(W: WeightedHypergroupoid, g: int):
    """A simple arrow u with g u finite and all simple, certifying left
    finiteness; returns (u, comp(g, u)), or None when no witness exists
    among the arrows.  Raises ValueError when |g|_l differs from |g u|,
    which a table with overridden weights can do."""
    H = W.base
    for u in H.simple_arrows:
        if not H.composable(g, u):
            continue
        gu = H.compose(g, u)
        if all(is_simple(H, c) for c in gu):
            if W.left[g] != len(gu):
                raise ValueError(f"left weight {W.left[g]} differs from |g u| = {len(gu)}")
            return u, gu
    return None
