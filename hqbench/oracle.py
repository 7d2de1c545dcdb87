"""Reference computations made apart from hyperq.

Nothing here imports hyperq.  The benchmark uses these functions to build
its inputs and to check every output the program prints:

* ``closure`` and ``coset_action`` rebuild a coset action by the
  numbering the program documents (group elements breadth-first from the
  identity, right-multiplying by the generators in input order; cosets
  ordered by least member), so that point numbers agree.
* ``burnside_rank`` counts pair orbits as (1/|G|) sum_g fix(g)^2.
* ``pair_orbits`` labels pairs by min-label propagation, a different
  algorithm from the program's breadth-first walk; orbit ids are ordered
  by least pair, which is how the program names its arrows.
* ``check_mu_sample`` tests M_g M_g' = sum_a mu(a,g,g') M_a with integer
  incidence matrices on a seeded sample of arrow pairs.
* ``Table`` evaluates a handful of laws on an abstract table (weights,
  star symmetry of mu, the third weight identity, HG3 and KMS) so that
  a mutant's expected failure is known before the program runs.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

import numpy as np

INF = float("inf")


class OracleError(AssertionError):
    """An output of the program disagrees with the reference."""


def expect(cond: bool, message: str):
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# groups and coset actions


def compose(p, q) -> tuple[int, ...]:
    """p after q."""
    return tuple(p[i] for i in q)


def closure(gens, degree: int) -> list[tuple[int, ...]]:
    """Elements of the generated group in breadth-first order from the
    identity, right-multiplying by each generator in input order."""
    e = tuple(range(degree))
    gens = [tuple(g) for g in gens]
    elements = [e]
    seen = {e}
    queue = deque([e])
    while queue:
        x = queue.popleft()
        for s in gens:
            y = compose(x, s)
            if y not in seen:
                seen.add(y)
                elements.append(y)
                queue.append(y)
    return elements


def coset_action(degree: int, group_gens, subgroup_gens) -> tuple[int, list[tuple[int, ...]]]:
    """Point count and generator images of G acting on the disjoint union
    of the left coset spaces G/K, one block per listed subgroup."""
    elements = closure(group_gens, degree)
    index = {g: i for i, g in enumerate(elements)}
    blocks = []
    for k_gens in subgroup_gens:
        K = closure(k_gens, degree)
        cls = [-1] * len(elements)
        firsts = []
        for i, g in enumerate(elements):
            if cls[i] < 0:
                for k in K:
                    cls[index[compose(g, k)]] = len(firsts)
                firsts.append(g)
        blocks.append([[cls[index[compose(s, g)]] for g in firsts] for s in group_gens])
    offset = 0
    images: list[list[int]] = [[] for _ in group_gens]
    for block in blocks:
        for i, img in enumerate(block):
            images[i].extend(offset + p for p in img)
        offset += len(block[0]) if block else 0
    return offset, [tuple(img) for img in images]


def burnside_rank(n_points: int, gens) -> int:
    """Number of orbits on ordered pairs: (1/|G|) sum over G of fix(g)^2,
    over the closure of the point permutations."""
    G = np.array(closure(gens, n_points), dtype=np.int64).reshape(-1, n_points)
    fix = (G == np.arange(n_points)).sum(axis=1)
    total = int((fix * fix).sum())
    expect(total % len(G) == 0, "Burnside sum not divisible by the group order")
    return total // len(G)


def pair_orbits(n_points: int, gens) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """membership[x, y] = orbit id of (x, y), ids ordered by least pair."""
    n = n_points
    N = n * n
    idx = np.arange(N)
    x, y = np.divmod(idx, n)
    moves = []
    for s in gens:
        s = np.asarray(s, dtype=np.int64)
        P = s[x] * n + s[y]
        Pinv = np.empty_like(P)
        Pinv[P] = idx
        moves.append((P, Pinv))
    lab = idx.copy()
    while True:
        new = lab
        for P, Pinv in moves:
            new = np.minimum(new, new[P])
            new = np.minimum(new, new[Pinv])
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    least = np.unique(lab)
    membership = np.searchsorted(least, lab).reshape(n, n)
    reps = [(int(v) // n, int(v) % n) for v in least]
    return membership, reps


def point_orbits(n_points: int, gens) -> list[int]:
    orbit = list(range(n_points))

    def find(i):
        while orbit[i] != i:
            orbit[i] = orbit[orbit[i]]
            i = orbit[i]
        return i

    for s in gens:
        for p in range(n_points):
            a, b = find(p), find(s[p])
            if a != b:
                orbit[max(a, b)] = min(a, b)
    roots = sorted({find(p) for p in range(n_points)})
    return [roots.index(find(p)) for p in range(n_points)]


def structure_constants(membership: np.ndarray, reps) -> dict[tuple[int, int, int], int]:
    """Every nonzero <a|g,g'>, by integer matrix products (small tables)."""
    k = len(reps)
    mats = [(membership == g).astype(np.int64) for g in range(k)]
    rx = np.array([r[0] for r in reps])
    ry = np.array([r[1] for r in reps])
    mu = {}
    for g in range(k):
        for gp in range(k):
            vals = (mats[g] @ mats[gp])[rx, ry]
            for a in np.flatnonzero(vals):
                mu[(int(a), g, gp)] = int(vals[a])
    return mu


# ---------------------------------------------------------------------------
# checks on program output


def mu_from_json(doc: dict) -> dict[tuple[int, int, int], int]:
    """mu table of an ``algebra --format json`` report, keyed by arrow index."""
    ix = {a["id"]: i for i, a in enumerate(doc["atoms"])}
    return {(ix[m["a"]], ix[m["g"]], ix[m["gp"]]): m["value"] for m in doc["mu"]}


def check_mu_sample(membership: np.ndarray, mu: dict, pairs):
    """M_g M_g' == sum_a mu(a,g,g') M_a for each (g, g') in pairs."""
    k = int(membership.max()) + 1
    by_pair: dict[tuple[int, int], dict[int, int]] = {}
    for (a, g, gp), v in mu.items():
        by_pair.setdefault((g, gp), {})[a] = v
    for g, gp in pairs:
        lhs = (membership == g).astype(np.int64) @ (membership == gp).astype(np.int64)
        coeff = np.zeros(k, dtype=np.int64)
        for a, v in by_pair.get((g, gp), {}).items():
            expect(isinstance(v, int), f"mu({a},{g},{gp}) is not an integer: {v!r}")
            coeff[a] = v
        expect(np.array_equal(lhs, coeff[membership]),
               f"M_a{g} M_a{gp} differs from sum_a mu(a,a{g},a{gp}) M_a")


def sample_pairs(n_arrows: int, count: int, rng: random.Random) -> list[tuple[int, int]]:
    """Every arrow pair of a table with at most 32 arrows, else about
    ``count`` seeded pairs."""
    if n_arrows <= 32:
        return [(g, gp) for g in range(n_arrows) for gp in range(n_arrows)]
    return sorted({(rng.randrange(n_arrows), rng.randrange(n_arrows)) for _ in range(count)})


# ---------------------------------------------------------------------------
# abstract tables and a few of their laws


def _emul(a, b):
    return 0 if a == 0 or b == 0 else a * b


class Table:
    """An abstract hyperq/1 table, read from its JSON object."""

    def __init__(self, obj: dict):
        def val(v):
            return INF if v == "inf" else v

        self.obj = obj
        self.names = [a["name"] for a in obj["arrows"]]
        ix = {nm: i for i, nm in enumerate(self.names)}
        self.src = [a["src"] for a in obj["arrows"]]
        self.tgt = [a["tgt"] for a in obj["arrows"]]
        self.star = [ix[a["star"]] for a in obj["arrows"]]
        self.unit_of = {u: ix[a] for u, a in obj["unit_arrows"].items()}
        self.comp = {(ix[c["left"]], ix[c["right"]]): {ix[r] for r in c["result"]}
                     for c in obj["comp"]}
        self.mu = {(ix[m["a"]], ix[m["g"]], ix[m["gp"]]): val(m["value"]) for m in obj["mu"]}
        n = len(self.names)
        self.derived_left = [self.mu.get((self.unit_of[self.src[g]], self.star[g], g), 0)
                             for g in range(n)]
        self.derived_right = [self.mu.get((self.unit_of[self.tgt[g]], g, self.star[g]), 0)
                              for g in range(n)]
        self.left = list(self.derived_left)
        self.right = list(self.derived_right)
        for field, vec in (("left", self.left), ("right", self.right)):
            for nm, v in obj.get(field, {}).items():
                vec[ix[nm]] = val(v)

    @property
    def n(self) -> int:
        return len(self.names)

    def chi_defined(self, g: int) -> bool:
        return all(0 < w < INF for w in (self.left[g], self.right[g]))

    def broken_laws(self) -> set[str]:
        """Names (as the program spells them) of the laws evaluated here
        that this table breaks."""
        n, star, mu = self.n, self.star, self.mu
        broken = set()
        if self.left != self.derived_left:
            broken.add("left-def")
        if self.right != self.derived_right:
            broken.add("right-def")
        if any(v != mu.get((star[a], star[gp], star[g]), 0) for (a, g, gp), v in mu.items()):
            broken.add("star-mu")
        for (g, gp), cs in self.comp.items():
            total = 0
            for a in cs:
                total = total + _emul(mu[(a, g, gp)], self.left[a])
            if _emul(self.left[g], self.left[gp]) != total:
                broken.add("murel-3")
        for (y, z), xs in self.comp.items():
            for x in xs:
                if z not in self.comp.get((star[y], x), ()) or \
                        y not in self.comp.get((x, star[z]), ()):
                    broken.add("HG3")
        return broken

    def kms_holds(self) -> bool:
        """eta([q] sigma_i([q'])) == eta([q'] [q]) over all arrow pairs."""
        units = set(self.unit_of.values())

        def unit_mass(x, y):
            return sum(self.mu[(a, x, y)] for a in self.comp.get((x, y), ()) if a in units)

        for q in range(self.n):
            for qp in range(self.n):
                chi = Fraction(self.left[qp], self.right[qp])
                if Fraction(unit_mass(q, qp)) / chi != unit_mass(qp, q):
                    return False
        return True


def realized_table(name: str, degree: int, group_gens, subgroups) -> dict:
    """The abstract hyperq/1 object of a (small) coset action, computed
    here: arrows are pair orbits ordered by least pair, units the point
    orbits, mu the pair counts."""
    n_points, gens = coset_action(degree, group_gens, [g for _, g in subgroups])
    membership, reps = pair_orbits(n_points, gens)
    porb = point_orbits(n_points, gens)
    mu = structure_constants(membership, reps)
    names = [f"a{g}" for g in range(len(reps))]
    units = [f"u{k}" for k in range(max(porb) + 1)]
    src = [porb[y] for _, y in reps]
    tgt = [porb[x] for x, _ in reps]
    star = [int(membership[y, x]) for x, y in reps]
    unit_arrows = {}
    for p in range(n_points):
        unit_arrows.setdefault(units[porb[p]], names[int(membership[p, p])])
    comp: dict[tuple[int, int], list[int]] = {}
    for (a, g, gp) in sorted(mu):
        comp.setdefault((g, gp), []).append(a)
    return {
        "schema": "hyperq/1", "kind": "abstract", "name": name,
        "units": units,
        "arrows": [{"name": names[g], "src": units[src[g]], "tgt": units[tgt[g]],
                    "star": names[star[g]]} for g in range(len(reps))],
        "unit_arrows": unit_arrows,
        "comp": [{"left": names[g], "right": names[gp], "result": [names[a] for a in cs]}
                 for (g, gp), cs in sorted(comp.items())],
        "mu": [{"a": names[a], "g": names[g], "gp": names[gp], "value": v}
               for (a, g, gp), v in sorted(mu.items())],
    }
