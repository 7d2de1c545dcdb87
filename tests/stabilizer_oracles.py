"""Brute-force point stabilizers, used by the tests only.

The group is closed by hand from its generators, and each point's
stabilizer is read off by testing every element; nothing here comes
from ``hyperq.realization``, whose Schreier trees and coset listings
these are held against.

``factors`` is the stabilizer form of the generator condition Q10.  A
simple atom of a realized table is the graph of a G-map between point
orbits, so a product u v* of simple atoms is the orbit of one pair
(u(z), v(z)), and the orbit of (x, y) is such a product exactly when
some point z maps to both x and y by G-maps: when Stab(z) lies in
Stab(x) and in Stab(y).

``unit_sizes`` reads |X_e|, the size of the point orbit of each unit e,
off a realization's ``unit_points``: on a realized table the modular
function is chi(g) = |X_tgt g| / |X_src g|, so these sizes are the
potential of chi.
"""


def closure(generators, n: int) -> set[tuple[int, ...]]:
    """Every element of the group the generators make on n points."""
    group = {tuple(range(n))}
    while True:
        grown = group | {tuple(s[i] for i in g) for g in group for s in generators}
        if grown == group:
            return group
        group = grown


def stabilizers(generators, n: int) -> list[int]:
    """Each point's stabilizer, as a bit mask over the group's elements
    in one fixed order."""
    elements = sorted(closure(generators, n))
    return [sum(1 << k for k, g in enumerate(elements) if g[x] == x) for x in range(n)]


def factors(stabilizer: list[int], x: int, y: int) -> bool:
    """Whether some point's stabilizer lies in Stab(x) and Stab(y)."""
    both = stabilizer[x] & stabilizer[y]
    return any(s & ~both == 0 for s in stabilizer)


def unit_sizes(real) -> dict[int, int]:
    """{unit e: |X_e|}, the number of points of each unit's orbit."""
    return {e: len(points) for e, points in enumerate(real.unit_points)}
