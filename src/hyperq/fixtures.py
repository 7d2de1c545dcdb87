"""Built-in fixtures: small actions with known orbit structure, the
two-atom coset quantale, and a seeded generator of random coset specs.

The recurring examples:

* the trivial group on two points (every pair its own orbit),
* S3 on itself (the group algebra case, six arrows, one unit),
* S3 on the three cosets of a point stabilizer (arrows 1 and d, where
  d is the off-diagonal orbit and d d = {1, d} with <1|d,d> = 2),
* the nine-point disjoint union of the two, whose mixed arrows are the
  three equivariant quotient maps and their adjoints.
"""

from __future__ import annotations

import random

from .errors import HyperqError
from .quantale import AtomicQuantale
from .realization import (
    CosetSpec,
    PermAction,
    coset_space,
    disjoint_union,
    enumerate_group,
    from_cycles,
)


def trivial_pair_action() -> PermAction:
    """Trivial group acting on two points."""
    return PermAction(n_points=2, generators=())


def s3_generators() -> tuple[tuple[int, ...], ...]:
    return (from_cycles(3, (0, 1)), from_cycles(3, (0, 1, 2)))


def s3_spec() -> CosetSpec:
    """S3 with its trivial subgroup and a point stabilizer."""
    return CosetSpec(
        degree=3,
        group_generators=s3_generators(),
        subgroups=(
            ("trivial", ()),
            ("stab", (from_cycles(3, (0, 1)),)),
        ),
    )


def s3_regular_action() -> PermAction:
    """S3 on its six elements by left multiplication."""
    return coset_space(s3_spec(), 0)


def s3_coset_action() -> PermAction:
    """S3 on the three cosets of a transposition stabilizer."""
    return coset_space(s3_spec(), 1)


def s3_mixed_action() -> PermAction:
    """Disjoint union of the regular and the three-point actions."""
    spec = s3_spec()
    return disjoint_union((coset_space(spec, 0), coset_space(spec, 1)))


def delta_quantale() -> AtomicQuantale:
    """Atoms 1 and d with d d = {1, d}: the invariant relations of a
    doubly transitive action on more than two points (d the complement
    of the diagonal)."""
    one, d = frozenset((0,)), frozenset((1,))
    return AtomicQuantale(
        atom_names=("1", "d"),
        product=((one, d), (d, frozenset((0, 1)))),
        star=(0, 1),
        units=frozenset((0,)),
    )


def delta_quantale_mutated() -> AtomicQuantale:
    """Same atoms with d d = {d}: associative and unital but not modular."""
    one, d = frozenset((0,)), frozenset((1,))
    return AtomicQuantale(
        atom_names=("1", "d"),
        product=((one, d), (d, d)),
        star=(0, 1),
        units=frozenset((0,)),
    )


def random_coset_specs(
    count: int,
    seed: int = 0,
    max_order: int = 48,
    max_degree: int = 5,
    max_points: int = 60,
) -> list[CosetSpec]:
    """Seeded battery of coset specs over groups of order <= max_order.

    Each spec draws one or two random generator permutations, retries
    until the generated group is within the order bound, then picks one
    or two subgroups as closures of random elements (possibly none,
    giving a regular block).  The total coset count is capped so the
    battery stays at desk scale.  Deterministic for a fixed seed."""
    rng = random.Random(seed)
    specs: list[CosetSpec] = []
    while len(specs) < count:
        degree = rng.randint(2, max_degree)
        gens = []
        for _ in range(rng.randint(1, 2)):
            p = list(range(degree))
            rng.shuffle(p)
            gens.append(tuple(p))
        try:
            group = enumerate_group(gens, degree, order_bound=max_order)
        except (HyperqError, ValueError):
            continue
        if len(group) < 2:
            continue
        subgroups = []
        for k in range(rng.randint(1, 2)):
            seeds = [group[rng.randrange(len(group))] for _ in range(rng.randint(0, 2))]
            subgroups.append((f"K{k}", tuple(sorted(set(seeds)))))
        spec = CosetSpec(degree=degree, group_generators=tuple(gens),
                         subgroups=tuple(subgroups))
        points = 0
        ok = True
        for k in range(len(spec.subgroups)):
            try:
                act = coset_space(spec, k)
            except (HyperqError, ValueError):
                ok = False
                break
            points += act.n_points
        if not ok or points > max_points:
            continue
        specs.append(spec)
    return specs
