"""The dict forms of a table, for tests.

The package keeps a table as rows (b, a, c) with a value column beside
them.  The tests that state a law entry by entry, or that build a mutant
by editing one entry, read and edit these dicts instead:

- the composition dict {(b, a): composition set}, and the mu dict
  {(c, b, a): value}, both read off the rows directly, in row order;
- a table rebuilt from an edited dict through the package's own dict
  boundaries, ``from_comp`` and ``mu_values``, which check it.
"""

from hyperq.algebra import WeightedHypergroupoid, mu_values
from hyperq.hypergroupoid import from_comp


def comp_dict(H):
    """{(b, a): composition set} of H's rows, in row order."""
    sets: dict[tuple[int, int], set[int]] = {}
    for b, a, c in zip(*H.rows):
        sets.setdefault((b, a), set()).add(c)
    return {pair: frozenset(cs) for pair, cs in sets.items()}


def mu_dict(H, values):
    """{(c, b, a): value} of H's rows and a value column, in row order."""
    b_, a_, c_ = H.rows
    return dict(zip(zip(c_, b_, a_), values))


def with_comp(H, comp):
    """H with its table replaced by the composition dict ``comp``."""
    return from_comp(H.unit_names, H.arrow_names, H.src, H.tgt, H.star, H.unit_arrow, comp)


def with_mu(W, mu, left=None, right=None):
    """W with its values replaced by the mu dict ``mu``, and its weights
    by ``left`` and ``right`` where given."""
    return WeightedHypergroupoid(
        W.base, values=mu_values(W.base, mu),
        left=W.left if left is None else left, right=W.right if right is None else right)
