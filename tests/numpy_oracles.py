"""numpy oracles for the realization layer, used by the tests only.

hyperq itself runs on the standard library; these are the independent
numpy computations the tests hold it to:

* ``pair_orbits`` and ``pair_products``: the pair-orbit walk over an
  n x n label matrix and the intersection numbers as one ``np.unique``
  histogram, as hyperq computed them before its flat-list rewrite;
* ``membership_matrix`` and ``matrix``: the label list as an n x n
  array, and the 0/1 incidence matrix of one arrow;
* ``regular_rep`` and ``decompose_matrix``: the regular representation
  on functions on the points and its inverse on the image.
"""

from fractions import Fraction
from itertools import groupby

import numpy as np


def membership_matrix(real) -> np.ndarray:
    """membership as an n x n array: entry (x, y) is the orbit of (x, y)."""
    n = real.n_points
    return np.array(real.membership, dtype=np.int64).reshape(n, n)


def matrix(real, g: int) -> np.ndarray:
    """0/1 incidence matrix of arrow g."""
    return membership_matrix(real) == g


def pair_orbits(action):
    """(membership, representatives, orbit sizes) of the pair orbits,
    walked breadth-first from each unlabelled pair in row-major order;
    membership is an n x n int64 array."""
    n = action.n_points
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
    return membership, reps, sizes


def pair_products(membership, reps, src, n_arrows):
    """Intersection numbers of the pair orbits as one integer histogram.

    All arrows are counted at once by one ``np.unique`` over the key
    (rank of b, a, c), where b is ranked by (src[b], b).  Keys come out
    sorted, so mu lists its entries (c, b, a) by src[b], then b, then a,
    then increasing c, and comp its pairs in the same order.  Returns
    (mu, comp)."""
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
    rows = list(zip(order[rb].tolist(), a.tolist(), c.tolist(), counts.tolist()))
    mu = {(ci, bi, ai): v for bi, ai, ci, v in rows}
    comp = {pair: frozenset(r[2] for r in group)
            for pair, group in groupby(rows, key=lambda r: r[:2])}
    return mu, comp


def regular_rep(real, u) -> np.ndarray:
    """Matrix of an element acting on functions on the points: [g] maps
    to its 0/1 incidence matrix.  Exact object dtype; use ``.dot`` for
    products."""
    n = real.n_points
    out = np.full((n, n), Fraction(0), dtype=object)
    for g, c in u.items():
        if c == 0:
            continue
        out[matrix(real, g)] += c
    return out


def decompose_matrix(real, M: np.ndarray) -> dict:
    """Inverse of regular_rep on its image: read coefficients at orbit
    representatives and verify the matrix is constant on orbits."""
    out: dict[int, object] = {}
    for g, (x, y) in enumerate(real.representative):
        c = M[x, y]
        if c != 0:
            out[g] = c
    check = np.full(M.shape, Fraction(0), dtype=object)
    for g, c in out.items():
        check[matrix(real, g)] += c
    if not (check == M).all():
        raise ValueError("matrix is not constant on pair orbits")
    return out
